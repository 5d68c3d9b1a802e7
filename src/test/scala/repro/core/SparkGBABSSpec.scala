package repro.core

import org.apache.spark.SparkException
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData, TestData}

class SparkGBABSSpec extends SparkSpec {

  private lazy val data = TestData.twoBlobs(120, sep = 8.0, seed = 50)
  private lazy val df = SynthData.pointsToDF(spark, data).cache()

  test("pointsToDF preserves schema and size") {
    assert(df.columns.toSeq == Seq("id", "features", "label"))
    assert(df.count() == data.size)
  }

  test("sampleExact returns the sequential GBABS result") {
    val local = GBABS.run(data, rho = 5, seed = 42).sampled.map(_.id).toSet
    val viaSpark = SparkGBABS.sampleExact(df, rho = 5, seed = 42)
      .select("id").collect().map(_.getLong(0)).toSet
    assert(viaSpark == local,
      s"spark-exact (${viaSpark.size}) must equal sequential GBABS (${local.size})")
  }

  test("sampled rows are a subset of the input (id, label, features intact)") {
    val sampled = SparkGBABS.sample(df.repartition(4), seed = 1)
    val joined = sampled.as("s").join(df.as("o"), Seq("id"))
      .where(col("s.label") === col("o.label"))
    assert(joined.count() == sampled.count())
  }

  test("per-partition sampling compresses each partition") {
    val sampled = SparkGBABS.sample(df.repartition(2), seed = 2)
    val n = sampled.count()
    assert(n > 0 && n < data.size)
  }

  test("empty input yields an empty sample") {
    val empty = df.where(lit(false))
    assert(SparkGBABS.sample(empty).count() == 0)
  }

  test("single-partition determinism") {
    val a = SparkGBABS.sampleExact(df, seed = 3).select("id").collect().map(_.getLong(0)).toSet
    val b = SparkGBABS.sampleExact(df, seed = 3).select("id").collect().map(_.getLong(0)).toSet
    assert(a == b)
  }

  test("oracle: per-class counts of the sampled set match DuckDB") {
    val sampled = SparkGBABS.sampleExact(df, seed = 4).select("id", "label").cache()
    val sparkAgg = sampled.groupBy("label").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT label, count(*) AS cnt FROM samp GROUP BY label",
      "samp" -> sampled)
  }

  test("oracle: sampled ids all exist in the original dataset") {
    val sampled = SparkGBABS.sampleExact(df, seed = 5).select("id", "label")
    val orig = df.select(col("id") as "oid", col("label") as "olabel")
    val sparkAgg = sampled.join(orig, sampled("id") === orig("oid") && sampled("label") === orig("olabel"))
      .agg(count(lit(1)) as "matched")
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT count(*) AS matched FROM samp s JOIN orig o ON s.id = o.oid AND s.label = o.olabel",
      "samp" -> sampled, "orig" -> orig)
  }

  test("multi-partition union is still pure-subset and deduplicated per partition run") {
    val sampled = SparkGBABS.sample(df.repartition(3), seed = 6).select("id")
    val n = sampled.count()
    val distinct = sampled.distinct().count()
    assert(n == distinct, "partitions are disjoint so sampled ids cannot repeat")
  }

  test("bad feature rows fail the job with the row id (NaN, infinite, ragged)") {
    val bad = Seq(
      Point(Array(Double.NaN, 0.0), 1, 9001L),
      Point(Array(0.0, Double.PositiveInfinity), 1, 9002L),
      Point(Array(0.0, 0.0, 0.0), 1, 9003L))
    for (row <- bad) {
      val withBad = SynthData.pointsToDF(spark, data.take(20) :+ row)
      val e = intercept[SparkException] { SparkGBABS.sampleExact(withBad).collect() }
      val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
        .collectFirst { case iae: IllegalArgumentException => iae }
      assert(cause.exists(_.getMessage.contains(s"row ${row.id}")), s"no cause naming row ${row.id}: $e")
    }
  }
}
