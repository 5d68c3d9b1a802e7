package repro.core

/** The brute-force nearest-neighbour kernel shared by RD-GBG, the SMOTE
  * family and Tomek links. Every query orders candidates by ascending
  * (distance, id); ids are unique, so two keys never tie. Datasets here are
  * at most a few thousand samples, so O(n·k) scans are the simplest correct
  * substrate (and the one place a spatial index would plug in).
  */
object Neighbors {

  /** True iff key `(d1, id1)` comes before `(d2, id2)` in ascending
    * (distance, id) order.
    */
  def precedes(d1: Double, id1: Long, d2: Double, id2: Long): Boolean =
    d1 < d2 || (d1 == d2 && id1 < id2)

  /** Positions of the `k` smallest `(d(i), ids(i))` keys among the first
    * `count` entries, ascending, except position `skip`: one pass of
    * bounded insertion into a k-slot buffer, no sort of the pool. Fewer
    * than `k` when fewer are eligible. `d` and `ids` may be longer than
    * `count` (RD-GBG reuses one pair of buffers for every candidate).
    */
  def kSmallest(d: Array[Double], ids: Array[Long], count: Int, k: Int, skip: Int = -1): Array[Int] = {
    val eligible = count - (if (skip >= 0 && skip < count) 1 else 0)
    val buf = new Array[Int](math.max(0, math.min(k, eligible)))
    def before(i: Int, j: Int) = precedes(d(i), ids(i), d(j), ids(j))
    var size = 0; var i = 0
    while (i < count && buf.nonEmpty) {
      if (i != skip && (size < buf.length || before(i, buf(size - 1)))) {
        if (size < buf.length) size += 1
        var j = size - 1
        while (j > 0 && before(i, buf(j - 1))) { buf(j) = buf(j - 1); j -= 1 }
        buf(j) = i
      }
      i += 1
    }
    buf
  }

  /** The `k` nearest points to `x` within `pool`, excluding the point with
    * the same id as `x`.
    */
  def kNearest(x: Point, pool: Vector[Point], k: Int): Vector[Point] = {
    val d = pool.iterator.map(_.sqDist(x)).toArray
    kSmallest(d, pool.map(_.id).toArray, d.length, k, pool.indexWhere(_.id == x.id)).iterator.map(pool).toVector
  }

  /** Index of the single nearest neighbour of `pool(i)` inside `pool`
    * (-1 if `pool` holds only `pool(i)`).
    */
  def nearestIndex(pool: Vector[Point], i: Int): Int = {
    val d = pool.iterator.map(_.sqDist(pool(i))).toArray
    kSmallest(d, pool.map(_.id).toArray, d.length, 1, i).headOption.getOrElse(-1)
  }
}
