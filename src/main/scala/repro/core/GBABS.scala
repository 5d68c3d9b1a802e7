package repro.core

import scala.collection.mutable

/** Result of GB-based approximate borderline sampling.
  *
  * @param sampled        the borderline sample set S (no duplicates)
  * @param balls          the granular balls generated by RD-GBG
  * @param noise          class-noise samples removed by RD-GBG
  * @param borderlineIdx  indices (into `balls`) of the borderline balls
  * @param originalSize   |D|, for sampling-ratio accounting
  */
final case class GBABSResult(
    sampled: Vector[Point],
    balls: Vector[GranularBall],
    noise: Vector[Point],
    borderlineIdx: Set[Int],
    originalSize: Int,
) {
  /** Sampling ratio |S| / |D| relative to the original dataset. */
  def samplingRatio: Double =
    if (originalSize == 0) 0.0 else sampled.size.toDouble / originalSize
}

/** GB-based Approximate Borderline Sampling (Algorithm 2).
  *
  * The centers of all balls form the positional summary of the dataset.
  * Along every feature dimension the centers are sorted; an adjacent pair
  * of heterogeneous centers marks both balls as borderline in that
  * dimension, and each ball of the pair contributes its sample nearest the
  * shared boundary: the left ball's sample with the largest coordinate and
  * the right ball's sample with the smallest (Fig.4 of the paper).
  */
object GBABS {

  /** Borderline sampling over an existing ball set with `p` features.
    * Along each dimension the balls are ordered by
    * `java.lang.Double.compare` of their centre coordinate (-0.0 < 0.0),
    * then by ball index.
    */
  def sampleBalls(balls: Vector[GranularBall], p: Int): (Vector[Point], Set[Int]) = {
    val n = balls.length
    val chosen = mutable.LinkedHashMap.empty[Long, Point]
    val borderline = new Array[Boolean](n)
    if (n >= 2) {
      val key = new Array[Double](n)
      val order = Array.tabulate[Integer](n)(Integer.valueOf)
      val byKey: java.util.Comparator[Integer] = (a, b) => {
        val c = java.lang.Double.compare(key(a), key(b))
        if (c != 0) c else Integer.compare(a, b)
      }
      var d = 0
      while (d < p) {
        var i = 0
        while (i < n) { key(i) = balls(i).center(d); i += 1 }
        java.util.Arrays.sort(order, byKey)
        var k = 0
        while (k < n - 1) {
          val j: Int = order(k); val j2: Int = order(k + 1)
          if (balls(j).label != balls(j2).label) {
            borderline(j) = true; borderline(j2) = true
            val left  = balls(j).extremeAlong(d, largest = true)
            val right = balls(j2).extremeAlong(d, largest = false)
            chosen.getOrElseUpdate(left.id, left)
            chosen.getOrElseUpdate(right.id, right)
          }
          k += 1
        }
        d += 1
      }
    }
    (chosen.valuesIterator.toVector, borderline.indices.filter(borderline(_)).toSet)
  }

  /** Full pipeline: RD-GBG granulation then borderline sampling.
    *
    * If the ball set is single-class (no class boundary exists — e.g. a
    * partition that happens to hold one class), every sample is kept, since
    * discarding an entire region would be worse than not compressing it.
    */
  def run(data: Seq[Point], rho: Int = 5, seed: Long = 42): GBABSResult = {
    if (data.isEmpty) return GBABSResult(Vector.empty, Vector.empty, Vector.empty, Set.empty, 0)
    val p = data.head.dim
    val gen = RDGBG.generate(data, rho, seed)
    val labels = gen.balls.map(_.label).distinct
    if (labels.size <= 1) {
      GBABSResult(gen.balls.flatMap(_.points), gen.balls, gen.noise, Set.empty, data.size)
    } else {
      val (sampled, bIdx) = sampleBalls(gen.balls, p)
      GBABSResult(sampled, gen.balls, gen.noise, bIdx, data.size)
    }
  }
}
