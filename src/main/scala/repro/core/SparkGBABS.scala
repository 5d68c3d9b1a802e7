package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, Dataset}

/** Row schema shared by the Spark-facing sampling API: a stable id, the
  * feature vector as an array column, and an integer class label.
  */
final case class FeatRow(id: Long, features: Array[Double], label: Int)

/** GBABS as a per-partition DataFrame operation.
  *
  * The paper's method is a single-node sampling algorithm; per the
  * reproduction plan it is exposed on Spark as a `mapPartitions` operator:
  * each partition is granulated and borderline-sampled independently
  * (approximate borderline sampling of the union). With one input
  * partition the result is exactly the sequential algorithm.
  */
object SparkGBABS {

  /** Convert a (id, features, label) DataFrame to the typed row Dataset. */
  def asRows(df: DataFrame): Dataset[FeatRow] = {
    import df.sparkSession.implicits._
    df.selectExpr("cast(id as long) as id",
                  "cast(features as array<double>) as features",
                  "cast(label as int) as label").as[FeatRow]
  }

  /** Borderline-sample each partition of `df` independently.
    *
    * Each partition rejects NaN or infinite features and feature arrays
    * whose length differs from its first row's; the error names the row id.
    *
    * @param df    DataFrame with columns `id: long`, `features: array<double>`,
    *              `label: int`
    * @param rho   density tolerance of RD-GBG
    * @param seed  base seed; each partition derives seed + partitionId so the
    *              run is deterministic for a fixed partitioning
    */
  def sample(df: DataFrame, rho: Int = 5, seed: Long = 42): DataFrame = {
    import df.sparkSession.implicits._
    asRows(df).mapPartitions { it =>
      val pts = it.map(r => Point(r.features, r.label, r.id)).toVector
      pts.foreach { q =>
        require(q.dim == pts.head.dim, s"row ${q.id}: ${q.dim} features, the partition's first row has ${pts.head.dim}")
        require(q.features.forall(v => !v.isNaN && !v.isInfinite), s"row ${q.id}: NaN or infinite feature")
      }
      if (pts.isEmpty) Iterator.empty
      else {
        val pid = Option(TaskContext.get()).map(_.partitionId()).getOrElse(0)
        val res = GBABS.run(pts, rho, seed + pid)
        res.sampled.iterator.map(p => FeatRow(p.id, p.features, p.label))
      }
    }.toDF()
  }

  /** Exact (single-partition) sampling: coalesce to 1 partition first. */
  def sampleExact(df: DataFrame, rho: Int = 5, seed: Long = 42): DataFrame =
    sample(df.coalesce(1), rho, seed)
}
