package repro.ml

import repro.{SparkSpec, TestData}
import scala.util.Random

class GBDTSpec extends SparkSpec {

  test("XGBoost-like preset classifies separable clusters") {
    val train = TestData.twoBlobs(100, sep = 8.0, seed = 1)
    val test = TestData.twoBlobs(60, sep = 8.0, seed = 2)
    val m = GBDT.xgboostLike(10).fit(train, seed = 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.93)
  }

  test("LightGBM-like preset classifies separable clusters") {
    val train = TestData.twoBlobs(100, sep = 8.0, seed = 3)
    val test = TestData.twoBlobs(60, sep = 8.0, seed = 4)
    val m = GBDT.lightgbmLike(10).fit(train, seed = 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.93)
  }

  test("single-class training yields a constant model") {
    val data = TestData.pts1d((0.0, 4), (1.0, 4))
    val m = GBDT.xgboostLike(5).fit(data, 0)
    assert(m.isInstanceOf[ConstantModel])
    assert(m.predict(Array(99.0)) == 4)
  }

  test("multi-class softmax boosting classifies three blobs") {
    val train = TestData.blobs(3, 50, sep = 10.0, seed = 5)
    val test = TestData.blobs(3, 20, sep = 10.0, seed = 6)
    val m = GBDT.lightgbmLike(10).fit(train, seed = 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.9)
  }

  test("more rounds do not hurt training fit") {
    val data = TestData.twoBlobs(120, sep = 2.0, seed = 7)
    val short = GBDT.xgboostLike(2).fit(data, 0)
    val long = GBDT.xgboostLike(20).fit(data, 0)
    val accShort = Metrics.accuracy(short.predictAll(data), data.map(_.label))
    val accLong = Metrics.accuracy(long.predictAll(data), data.map(_.label))
    assert(accLong >= accShort - 1e-9)
  }

  test("predictions are always in the training label set") {
    val train = TestData.pts1d((0.0, 7), (1.0, 7), (5.0, 9), (6.0, 9))
    val m = GBDT.lightgbmLike(5).fit(train, 0)
    for (x <- Seq(-10.0, 0.5, 3.0, 5.5, 50.0))
      assert(Set(7, 9).contains(m.predict(Array(x))))
  }

  test("constant features give a usable (prior) model") {
    val data = Vector.tabulate(12)(i => repro.core.Point(Array(2.0), i % 2, i.toLong))
    val m = GBDT.xgboostLike(3).fit(data, 0)
    assert(Set(0, 1).contains(m.predict(Array(2.0))))
  }

  test("deterministic (no RNG in the algorithm)") {
    val train = TestData.twoBlobs(80, sep = 3.0, seed = 8)
    val test = TestData.twoBlobs(40, sep = 3.0, seed = 9)
    val a = GBDT.lightgbmLike(6).fit(train, 1).predictAll(test)
    val b = GBDT.lightgbmLike(6).fit(train, 2).predictAll(test)
    assert(a == b)
  }

  test("leaf-wise trees respect the leaf budget indirectly (no runaway)") {
    val data = TestData.twoBlobs(200, sep = 0.5, seed = 10)
    val m = GBDT(name = "tiny", rounds = 3, maxLeaves = 2).fit(data, 0)
    assert(m.predictAll(data).toSet.subsetOf(Set(0, 1)))
  }

  private def leafCount(t: RegNode): Int = t match {
    case RegLeaf(_)           => 1
    case RegSplit(_, _, l, r) => leafCount(l) + leafCount(r)
  }

  private def depth(t: RegNode): Int = t match {
    case RegLeaf(_)           => 0
    case RegSplit(_, _, l, r) => 1 + math.max(depth(l), depth(r))
  }

  test("property: buildTree stops at maxLeaves leaves or depth maxDepth, whichever binds first") {
    val rng = new Random(2027)
    val bounds = Seq(0, 1, 2, 3, 5, 8, Int.MaxValue)
    var leafBound = 0; var depthBound = 0
    for (k <- 0 until 300) {
      // n rows, p features with 0..31 cuts each; a row's bin is in [0, cuts].
      val n = 2 + rng.nextInt(200); val p = 1 + rng.nextInt(6)
      val cuts = Array.fill(p)(Array.tabulate(rng.nextInt(32))(_.toDouble))
      val binOf = cuts.map(c => Array.fill(n)(rng.nextInt(c.length + 1)))
      val g = Array.fill(n)(rng.nextGaussian())
      val h = Array.fill(n)(0.01 + 0.24 * rng.nextDouble())
      val maxDepth = bounds(rng.nextInt(bounds.size))
      val maxLeaves = math.max(1, bounds(rng.nextInt(bounds.size)))
      val t = GBDT.buildTree(binOf, cuts, g, h, (0 until n).toArray, maxDepth, maxLeaves)
      assert(leafCount(t) <= maxLeaves, s"case $k: ${leafCount(t)} leaves > $maxLeaves")
      assert(depth(t) <= maxDepth, s"case $k: depth ${depth(t)} > $maxDepth")
      if (leafCount(t) == maxLeaves && maxLeaves > 1) leafBound += 1
      if (depth(t) == maxDepth && maxDepth > 0) depthBound += 1
    }
    assert(leafBound >= 20 && depthBound >= 20, s"bounds reached: leaves $leafBound, depth $depthBound")
  }

  test("empty training is rejected") {
    intercept[IllegalArgumentException] { GBDT.xgboostLike(3).fit(Vector.empty, 0) }
  }

  test("preset names match the paper's classifiers") {
    assert(GBDT.xgboostLike().name == "XGBoost")
    assert(GBDT.lightgbmLike().name == "LightGBM")
  }

  test("noisy labels reduce but do not destroy accuracy") {
    val clean = TestData.twoBlobs(200, sep = 6.0, seed = 11)
    val noisy = repro.data.DatasetGen.withNoise(clean, 0.2, seed = 12)
    val test = TestData.twoBlobs(100, sep = 6.0, seed = 13)
    val m = GBDT.xgboostLike(10).fit(noisy, 0)
    assert(Metrics.accuracy(m.predictAll(test), test.map(_.label)) > 0.8)
  }
}
