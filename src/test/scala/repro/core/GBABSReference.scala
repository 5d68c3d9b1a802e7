package repro.core

import scala.collection.mutable

/** Frozen copy of `GBABS.sampleBalls` as it was before the borderline pass
  * moved to primitive sort keys (per-dimension `sortBy` on a
  * `(centre coordinate, index)` tuple, `maxBy`/`minBy` extremes). It is the
  * reference of the differential property in `RDGBGReferenceSpec`: do not
  * edit it.
  */
object GBABSReference {

  /** Borderline sampling over an existing ball set with `p` features. */
  def sampleBalls(balls: Vector[GranularBall], p: Int): (Vector[Point], Set[Int]) = {
    val chosen = mutable.LinkedHashMap.empty[Long, Point]
    val borderline = mutable.Set.empty[Int]
    if (balls.size >= 2) {
      var d = 0
      while (d < p) {
        val order = balls.indices.sortBy(i => (balls(i).center(d), i.toLong))
        var k = 0
        while (k < order.length - 1) {
          val j = order(k); val j2 = order(k + 1)
          if (balls(j).label != balls(j2).label) {
            borderline += j; borderline += j2
            val left  = extremeAlong(balls(j), d, largest = true)
            val right = extremeAlong(balls(j2), d, largest = false)
            chosen.getOrElseUpdate(left.id, left)
            chosen.getOrElseUpdate(right.id, right)
          }
          k += 1
        }
        d += 1
      }
    }
    (chosen.valuesIterator.toVector, borderline.toSet)
  }

  /** `GranularBall.extremeAlong` as it was alongside this pass. */
  private def extremeAlong(b: GranularBall, d: Int, largest: Boolean): Point =
    if (largest) b.points.maxBy(_.features(d)) else b.points.minBy(_.features(d))
}
