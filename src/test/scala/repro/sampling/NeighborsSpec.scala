package repro.sampling

import repro.{SparkSpec, TestData}
import repro.core.{Neighbors, Point}
import scala.util.Random

class NeighborsSpec extends SparkSpec {

  private val line = TestData.pts1d((0.0, 0), (1.0, 0), (2.0, 1), (5.0, 1), (9.0, 0))

  test("kNearest returns the k closest points in order") {
    val n = Neighbors.kNearest(line(0), line, 2)
    assert(n.map(_.id) == Vector(1L, 2L))
  }

  test("kNearest excludes the query point itself") {
    val n = Neighbors.kNearest(line(2), line, 4)
    assert(!n.map(_.id).contains(2L))
  }

  test("kNearest caps at pool size minus one") {
    assert(Neighbors.kNearest(line(0), line, 100).size == 4)
  }

  test("kNearest breaks distance ties by id") {
    val sym = TestData.pts1d((0.0, 0), (-1.0, 0), (1.0, 0))
    val n = Neighbors.kNearest(sym(0), sym, 1)
    assert(n.map(_.id) == Vector(1L))
  }

  test("nearestIndex finds the mutual neighbor structure") {
    assert(Neighbors.nearestIndex(line, 0) == 1)
    assert(Neighbors.nearestIndex(line, 1) == 0)
    assert(Neighbors.nearestIndex(line, 2) == 1)
  }

  test("nearestIndex of a 2-point pool is the other point") {
    val two = TestData.pts1d((0.0, 0), (3.0, 1))
    assert(Neighbors.nearestIndex(two, 0) == 1)
    assert(Neighbors.nearestIndex(two, 1) == 0)
  }

  test("kNearest on an empty pool (only self) is empty") {
    assert(Neighbors.kNearest(line(0), Vector(line(0)), 3).isEmpty)
  }

  /** Pools on a small integer grid (many equal distances) with shuffled ids. */
  private def tiePool(rng: Random): Vector[Point] = {
    val n = 1 + rng.nextInt(40); val p = 1 + rng.nextInt(3)
    val ids = rng.shuffle((0 until n).map(_.toLong * 7).toVector)
    Vector.tabulate(n)(i => Point(Array.fill(p)(rng.nextInt(4).toDouble), rng.nextInt(2), ids(i)))
  }

  test("property: bounded kNearest equals sort-then-take on tie-heavy pools") {
    val rng = new Random(7)
    for (_ <- 0 until 300) {
      val pool = tiePool(rng)
      val x = pool(rng.nextInt(pool.size))
      val k = rng.nextInt(pool.size + 2)
      val sorted = pool.filter(_.id != x.id).sortBy(q => (q.sqDist(x), q.id)).take(k)
      assert(Neighbors.kNearest(x, pool, k).map(_.id) == sorted.map(_.id))
    }
  }

  test("property: nearestIndex equals kNearest(..., 1) on tie-heavy pools") {
    val rng = new Random(8)
    for (_ <- 0 until 300) {
      val pool = tiePool(rng)
      val i = rng.nextInt(pool.size)
      val viaK = Neighbors.kNearest(pool(i), pool, 1).map(q => pool.indexWhere(_.id == q.id))
      assert(Neighbors.nearestIndex(pool, i) == viaK.headOption.getOrElse(-1))
    }
  }
}
