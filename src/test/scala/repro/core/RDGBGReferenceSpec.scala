package repro.core

import repro.SparkSpec
import repro.data.DatasetGen
import scala.util.Random

/** Differential property: `RDGBG.generate` must reproduce the frozen
  * `RDGBGReference` exactly — same balls (centre, radius, label, member ids
  * in order) and the same noise ids in order — and `GBABS.sampleBalls` on
  * those balls must reproduce the frozen `GBABSReference` (sampled ids in
  * order, borderline set).
  */
class RDGBGReferenceSpec extends SparkSpec {

  private def assertSame(data: Vector[Point], rho: Int, seed: Long, what: String): Unit = {
    val got = RDGBG.generate(data, rho, seed)
    val want = RDGBGReference.generate(data, rho, seed)
    assert(got.noise.map(_.id) == want.noise.map(_.id), s"$what: noise ids differ")
    assert(got.balls.size == want.balls.size, s"$what: ball counts differ")
    got.balls.zip(want.balls).zipWithIndex.foreach { case ((g, w), i) =>
      assert(g.center.sameElements(w.center), s"$what: centre of ball $i differs")
      assert(java.lang.Double.compare(g.radius, w.radius) == 0,
        s"$what: radius of ball $i differs (${g.radius} vs ${w.radius})")
      assert(g.label == w.label, s"$what: label of ball $i differs")
      assert(g.points.map(_.id) == w.points.map(_.id), s"$what: members of ball $i differ")
    }
    val p = data.head.dim
    val (sampled, borderline) = GBABS.sampleBalls(got.balls, p)
    val (wantSampled, wantBorderline) = GBABSReference.sampleBalls(want.balls, p)
    assert(sampled.map(_.id) == wantSampled.map(_.id), s"$what: sampled ids differ")
    assert(borderline == wantBorderline, s"$what: borderline balls differ")
  }

  /** n in 5..200, p in 1..6, q in 2..4 classes around random centres;
    * coordinates continuous or rounded to a 0.5 / 1 / 2 grid (distance
    * ties); ids a shuffled, non-contiguous range so id order differs from
    * input order.
    */
  private def randomSet(rng: Random, grids: Seq[Double] = Seq(0.0, 0.5, 1.0, 2.0)): Vector[Point] = {
    val n = 5 + rng.nextInt(196); val p = 1 + rng.nextInt(6); val q = 2 + rng.nextInt(3)
    val grid = grids(rng.nextInt(grids.size))
    val spread = 1.0 + 4.0 * rng.nextDouble()
    val centres = Array.fill(q, p)(spread * (2 * rng.nextDouble() - 1))
    val ids = rng.shuffle((0 until n).map(i => 3L * i + 1).toVector)
    Vector.tabulate(n) { i =>
      val y = rng.nextInt(q)
      val x = Array.tabulate(p) { d =>
        val v = centres(y)(d) + rng.nextGaussian()
        if (grid == 0.0) v else math.round(v / grid) * grid
      }
      Point(x, y, ids(i))
    }
  }

  test("property: RDGBG equals the frozen reference on 400 random sets at rho 2, 3, 5, 9") {
    val rng = new Random(2025)
    for (k <- 0 until 400) {
      val data = randomSet(rng)
      for (rho <- Seq(2, 3, 5, 9)) assertSame(data, rho, seed = k, s"set $k rho $rho")
    }
  }

  /** Grid-rounded sets (ball centres repeat along a dimension) whose zero
    * coordinates are flipped to -0.0 at random: pins the borderline pass's
    * (`Double.compare`, ball index) order, in which -0.0 < 0.0.
    */
  test("property: RDGBG and GBABS equal the frozen references on 100 signed-zero sets at rho 2, 3, 5, 9") {
    val rng = new Random(2026)
    val withNegZero = (0 until 100).count { k =>
      val data = randomSet(rng, grids = Seq(1.0, 2.0)).map { pt =>
        Point(pt.features.map(v => if (v == 0.0 && rng.nextBoolean()) -0.0 else v), pt.label, pt.id)
      }
      for (rho <- Seq(2, 3, 5, 9)) assertSame(data, rho, seed = k, s"signed-zero set $k rho $rho")
      data.exists(_.features.exists(v => 1.0 / v < 0))
    }
    assert(withNegZero >= 50, s"only $withNegZero of 100 sets hold a -0.0 coordinate")
  }

  test("property: RDGBG equals the frozen reference on the 13 analogs (N = 500, 0% and 20% noise)") {
    for (spec <- DatasetGen.specs; noise <- Seq(0.0, 0.2)) {
      val data = DatasetGen.withNoise(DatasetGen.generate(spec, maxN = 500, maxP = 48), noise)
      assertSame(data, rho = 5, seed = 42, s"${spec.id} noise $noise")
    }
  }
}
