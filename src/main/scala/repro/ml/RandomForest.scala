package repro.ml

import repro.core.Point
import scala.util.Random

/** Random forest: bagged CART trees with sqrt(p) random features per split
  * and majority voting (Breiman 2001 / scikit-learn semantics; ensemble
  * size reduced for the bench budget and recorded in EXPERIMENTS.md).
  */
final case class RandomForest(nTrees: Int = 25) extends Learner {
  override val name = "RF"

  override def fit(train: Vector[Point], seed: Long): Classifier = {
    require(train.nonEmpty, "RF needs a non-empty training set")
    val rng = new Random(seed)
    val p = train.head.dim
    val mtry = math.max(1, math.round(math.sqrt(p.toDouble)).toInt)
    val n = train.size
    val trees = Vector.fill(nTrees) {
      val boot = Vector.fill(n)(train(rng.nextInt(n)))
      DecisionTree.build(boot, RandomForest.MaxDepth, 2, mtry, new Random(rng.nextLong()))
    }
    new ForestModel(trees)
  }
}

object RandomForest {
  /** Depth cap of every tree in the forest. */
  private val MaxDepth = 15
}

final class ForestModel(val trees: Vector[TreeModel]) extends Classifier {
  override def predict(x: Array[Double]): Int =
    trees.map(_.predict(x)).groupBy(identity).maxBy { case (lab, v) => (v.size, -lab) }._1
}
