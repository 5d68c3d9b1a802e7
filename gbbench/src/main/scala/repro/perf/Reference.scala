package repro.perf

/** A fixed computation of the benchmark's own, timed before the first op
  * and after every op, that tracks the speed the machine runs at. On a
  * shared VM that speed moves by up to 1.7x over minutes, and every op
  * moves with it; a time multiplied by `NominalS` over the kernel's time
  * next to it is in seconds at one fixed machine speed.
  *
  * The kernel does what the ops spend their time on, in plain Scala and
  * without any program code: squared distances at p = 48 from a few centres
  * to boxed points, a sort by distance, and a set of the nearest ids. A
  * compute-only distance loop tracked the ops less well (it sped up 1.76x
  * where a `GBABS.run` op sped up 1.48x).
  */
object Reference {
  /** About the kernel's time on an idle 4-vCPU VM at 2.0 GHz. */
  val NominalS = 0.0025

  private final class Pt(val id: Int, val x: Array[Double])
  private val P = 48
  private val pts: Vector[Pt] = {
    val r = new java.util.Random(20250101L)
    Vector.tabulate(1200)(i => new Pt(i, Array.fill(P)(r.nextDouble())))
  }
  @volatile private var sink = 0.0

  private def kernel(): Double = {
    var acc = 0.0
    var c = 0
    while (c < 6) {
      val centre = pts(c * 97 % pts.size)
      val ds = pts.map { q =>
        var d = 0.0
        var k = 0
        while (k < P) { val t = q.x(k) - centre.x(k); d += t * t; k += 1 }
        (d, q.id)
      }
      val sorted = ds.sortBy(_._1)
      acc += sorted(100)._1 + sorted.take(200).map(_._2).toSet.size
      c += 1
    }
    acc
  }

  /** Seconds one kernel pass takes. */
  def time(): Double = {
    val t0 = System.nanoTime()
    sink += kernel()
    (System.nanoTime() - t0) / 1e9
  }

  /** Compiles the kernel: a pass keeps getting faster for about 150 passes. */
  def warm(): Unit = (1 to 400).foreach(_ => time())
}
