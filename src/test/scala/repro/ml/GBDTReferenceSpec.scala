package repro.ml

import repro.SparkSpec
import repro.core.Point
import repro.data.DatasetGen
import scala.util.Random

/** Differential property: `GBDT`'s one best-first grower must build the
  * same trees as the frozen `ref.GBDT`, level-wise under a depth bound and
  * leaf-wise under a leaf bound: every round's per-class trees (split
  * features, thresholds, leaf weights) render identically.
  */
class GBDTReferenceSpec extends SparkSpec {

  /** Every round's trees, one line per round, read from a fitted model's
    * private `trees` field (the constant model of single-class data has none).
    */
  private def render(m: Classifier): String = m.getClass.getSimpleName match {
    case "ConstantModel" => s"constant ${m.predict(Array.empty)}"
    case _ =>
      val f = m.getClass.getDeclaredField("trees"); f.setAccessible(true)
      f.get(m).asInstanceOf[Vector[Array[AnyRef]]].map(_.mkString(" | ")).mkString("\n")
  }

  private def assertSame(data: Vector[Point], got: GBDT, want: ref.GBDT, what: String): Unit = {
    val (g, w) = (render(got.fit(data, 0)), render(want.fit(data, 0)))
    assert(g.nonEmpty && g == w, s"$what: trees differ\n got: $g\nwant: $w")
  }

  /** n in 5..304, p in 1..8, q in 2..5 classes around random centres;
    * coordinates continuous or rounded to a 0.5 / 1 grid (repeated values,
    * so fewer cut points and equal-gain splits).
    */
  private def randomSet(rng: Random): Vector[Point] = {
    val n = 5 + rng.nextInt(300); val p = 1 + rng.nextInt(8); val q = 2 + rng.nextInt(4)
    val grid = Seq(0.0, 0.5, 1.0)(rng.nextInt(3))
    val spread = 1.0 + 4.0 * rng.nextDouble()
    val centres = Array.fill(q, p)(spread * (2 * rng.nextDouble() - 1))
    Vector.tabulate(n) { i =>
      val y = rng.nextInt(q)
      val x = Array.tabulate(p) { d =>
        val v = centres(y)(d) + rng.nextGaussian()
        if (grid == 0.0) v else math.round(v / grid) * grid
      }
      Point(x, y, i.toLong)
    }
  }

  test("property: GBDT equals the frozen reference on 300 random sets at depths 1, 2, 3, 5, 8 and leaves 2, 3, 7, 15, 31") {
    val rng = new Random(2028)
    for (k <- 0 until 300) {
      val data = randomSet(rng)
      for (d <- Seq(1, 2, 3, 5, 8))
        assertSame(data, GBDT("t", rounds = 3, maxDepth = d),
          ref.GBDT("t", rounds = 3, leafWise = false, maxDepth = d), s"set $k depth $d")
      for (l <- Seq(2, 3, 7, 15, 31))
        assertSame(data, GBDT("t", rounds = 3, maxLeaves = l),
          ref.GBDT("t", rounds = 3, leafWise = true, maxLeaves = l), s"set $k leaves $l")
    }
  }

  /** The second half of the rows copies the first with feature 0's bin
    * flipped and the gradient negated. Feature 0 is then the only
    * positive-gain root split, and every split below it has an equal-gain
    * twin in the sibling subtree, so the leaf bound keeps whichever twin the
    * queue pops first: this pins the tie order (left child enqueued first).
    */
  test("property: buildTree equals the frozen reference on 200 mirrored sets, where sibling splits tie") {
    val rng = new Random(2029)
    val r = ref.GBDT("reference defaults")
    var tied = 0
    for (k <- 0 until 200) {
      val m = 2 + rng.nextInt(60); val p = 2 + rng.nextInt(4)
      val cuts = Array.tabulate(p)(f => Array.tabulate(if (f == 0) 1 else 1 + rng.nextInt(8))(_.toDouble))
      val binOf = Array.tabulate(p) { f =>
        val half = Array.fill(m)(if (f == 0) 0 else rng.nextInt(cuts(f).length + 1))
        half ++ half.map(b => if (f == 0) 1 else b)
      }
      val g0 = Array.fill(m)(rng.nextGaussian()); val h0 = Array.fill(m)(0.01 + 0.24 * rng.nextDouble())
      val (g, h, idx) = (g0 ++ g0.map(-_), h0 ++ h0, (0 until 2 * m).toArray)
      def want(leafWise: Boolean, d: Int, l: Int) =
        ref.GBDT.buildTree(binOf, cuts, g, h, idx, leafWise, d, l, r.lambda, r.bins, r.minChildHessian).toString
      for (l <- Seq(2, 3, 4, 5, 7, 15)) {
        val got = GBDT.buildTree(binOf, cuts, g, h, idx, Int.MaxValue, l).toString
        assert(got == want(leafWise = true, r.maxDepth, l), s"mirrored set $k leaves $l")
        // An odd leaf count below the full tree splits only one of two twins.
        if (l == 3 && got.startsWith("RegSplit(0,") && got.split("RegSplit").length == 3) tied += 1
      }
      for (d <- Seq(1, 2, 3, 5)) {
        val got = GBDT.buildTree(binOf, cuts, g, h, idx, d, Int.MaxValue).toString
        assert(got == want(leafWise = false, d, r.maxLeaves), s"mirrored set $k depth $d")
      }
    }
    assert(tied >= 50, s"only $tied of 200 sets split one of two tied siblings at 3 leaves")
  }

  test("property: both presets equal the frozen reference on the 13 analogs (N = 400, 0% and 20% noise)") {
    for (spec <- DatasetGen.specs; noise <- Seq(0.0, 0.2)) {
      val data = DatasetGen.withNoise(DatasetGen.generate(spec, maxN = 400, maxP = 48), noise)
      assertSame(data, GBDT.xgboostLike(), ref.GBDT.xgboostLike(), s"${spec.id} noise $noise XGBoost")
      assertSame(data, GBDT.lightgbmLike(), ref.GBDT.lightgbmLike(), s"${spec.id} noise $noise LightGBM")
    }
  }
}
