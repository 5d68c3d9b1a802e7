package repro.perf

/** Order statistics used for every reported timing. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** The tail timing: the highest order statistic with at least ten samples
    * beyond it (the 11th largest), with its percentile 100·(n−10)/n. Below
    * 20 samples no such statistic lies above the median, so the tail is
    * the maximum and its percentile is reported as 100.
    *
    * @return (value, percentile)
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val n = s.size
    if (n >= 20) (s(n - 11), 100.0 * (n - 10) / n) else (s.last, 100.0)
  }
}

/** Minimal JSON rendering for the result line and the trace file. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString

  def render(v: Any): String = v match {
    case null          => "null"
    case s: String     => str(s)
    case b: Boolean    => b.toString
    case i: Int        => i.toString
    case l: Long       => l.toString
    case d: Double     => num(d)
    case m: Map[_, _]  => m.toSeq.sortBy(_._1.toString)
                           .map { case (k, x) => s"${str(k.toString)}: ${render(x)}" }.mkString("{", ", ", "}")
    case xs: Seq[_]    => xs.map(render).mkString("[", ", ", "]")
    case o             => str(o.toString)
  }
}
