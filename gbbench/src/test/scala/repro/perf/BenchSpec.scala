package repro.perf

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import org.apache.spark.ListenerBusDrain
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** The benchmark's own tests: the smoke configuration of every workload,
  * metric names and units against BENCHMARK.json, listener aggregation,
  * the tail-percentile rule and span self time.
  */
class BenchSpec extends AnyFunSuite {

  private val outDir = new File("target/bench-test-out")

  private lazy val benchmarkJson = new ObjectMapper().readTree(new File("../BENCHMARK.json"))

  private def declared(key: String): Vector[(String, String)] =
    benchmarkJson.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toVector

  test("metric names and units match BENCHMARK.json") {
    assert(declared("end_to_end") == MetricNames.endToEnd)
    assert(declared("per_layer") == MetricNames.perLayer)
    val workloads = benchmarkJson.get("workloads").elements().asScala.map(_.get("name").asText).toVector
    assert(workloads == Workloads.full.map(_.name))
    assert(Workloads.smoke.map(_.name) == Workloads.full.map(_.name))
  }

  for (w <- Workloads.smoke) {
    test(s"smoke ${w.name}: untraced run passes its checks and reports every end-to-end metric") {
      val r = Runner.run(w, seed = 3, seconds = 0.3, traced = false, outDir, setups = 1)
      assert(r.correct, r.info("errors"))
      assert(r.failed == 0 && r.attempted >= 1)
      assert(r.metrics.map(m => m._1 -> m._3) == MetricNames.endToEnd)
      r.metrics.foreach { case (n, v, _) => assert(v > 0 && !v.isInfinite, s"$n = $v") }
      // One reference pass before the first op and one after every op.
      val refs = r.info("op_s.ref_samples").asInstanceOf[Seq[Double]]
      assert(refs.size == r.attempted + 1 && refs.forall(_ > 0))
      assert(r.info("op_s.raw_samples").asInstanceOf[Seq[Double]].size == r.attempted)
    }

    test(s"smoke ${w.name}: traced run passes the deeper checks and reports every per-layer metric") {
      val r = Runner.run(w, seed = 3, seconds = 0.3, traced = true, outDir, setups = 1)
      assert(r.correct, r.info("errors"))
      assert(r.metrics.map(m => m._1 -> m._3) == MetricNames.perLayer)
      val m = r.metrics.map(x => x._1 -> x._2).toMap
      assert(m("rdgbg.busy_s") > 0 && m("rdgbg.balls") > 0)
      assert(new File(outDir, s"trace-${w.name}-seed3.json").length > 0)
      w match {
        case _: HighDim  => assert(m("spark.tasks") == 0 && m("ml.fit_rows") == 0)
        case _: SparkS10 => assert(m("spark.tasks") == 4 && m("spark.task_skew") >= 1.0)
        case _: Grid =>
          MetricNames.learners.foreach(l => assert(m(s"ml.$l.fit_s") > 0, l))
          assert(m("exp.cell_s.p50") > 0 && m("data.fold_s") > 0)
          assert(m("sampling.BSM_s") > 0 && m("gbs.GGBS_s") > 0 && m("sampling.synthetic_rows") > 0)
      }
    }
  }

  test("listener aggregation: per-op sums, slowest task, skew and driver time") {
    def task(op: Int, job: Int, part: Int, run: Double) =
      TaskRec(op, job, part, durationS = run + 0.1, runS = run, deserS = 0.02, resultSerS = 0.01,
        gettingResultS = 0.0, gcS = 0.005, resultBytes = 100)
    val tasks = Vector(task(1, 10, 0, 1.0), task(1, 10, 1, 3.0), task(3, 11, 0, 2.0), task(3, 11, 1, 2.0),
      task(2, 12, 0, 50.0))
    val jobs = Vector(JobRec(1, 10, 3.5), JobRec(3, 11, 2.5), JobRec(2, 12, 51.0))
    val a = SparkStats.aggregate(tasks, jobs, ops = Set(1, 3))
    def near(x: Double, y: Double) = assert(math.abs(x - y) < 1e-9, s"$x vs $y")
    near(a("spark.tasks"), 2.0)
    near(a("spark.task_run_s.sum"), 4.0)
    near(a("spark.task_run_s.max"), 2.5)        // mean of per-op maxima 3.0 and 2.0
    near(a("spark.task_skew"), (1.5 + 1.0) / 2)  // 3.0 / 2.0 and 2.0 / 2.0
    near(a("spark.job_s"), 3.0)
    near(a("spark.driver_s"), ((3.5 - 3.1) + (2.5 - 2.1)) / 2)
    near(a("spark.sched_delay_s"), 2 * 0.07)    // 0.1 - 0.02 - 0.01 per task, two tasks per op
    near(a("spark.ser_s"), 2 * 0.03)
    near(a("spark.result_bytes"), 200.0)
    assert(SparkStats.aggregate(Vector.empty, Vector.empty, Set.empty)("spark.tasks") == 0.0)
  }

  test("listener attributes a job's tasks to the op set before the action") {
    val spark = Runner.startSpark(outDir)
    try {
      val sc = spark.sparkContext
      val stats = SparkStats.attach(sc)
      sc.setLocalProperty(SparkStats.OpProperty, "7")
      sc.parallelize(1 to 30, 3).map(_ * 2).collect()
      sc.setLocalProperty(SparkStats.OpProperty, null)
      sc.parallelize(1 to 10, 2).count()
      ListenerBusDrain(sc)
      assert(stats.tasks.count(_.op == 7) == 3)
      assert(stats.tasks.count(_.op == -1) == 2)
      assert(stats.jobs.map(_.op).sorted == Vector(-1, 7))
      assert(SparkStats.aggregate(stats.tasks, stats.jobs, Set(7))("spark.tasks") == 3.0)
    } finally Runner.stopSpark(spark)
  }

  test("tail is the highest order statistic with ten samples beyond it") {
    val xs = (1 to 100).map(_.toDouble)
    assert(Stats.tail(xs) == (90.0, 90.0))
    assert(Stats.tail(xs.take(20)) == (10.0, 50.0))
    assert(Stats.tail(xs.take(40).reverse) == (30.0, 75.0))
    assert(Stats.tail(xs.take(19)) == (19.0, 100.0))
    assert(Stats.median(Vector(3.0, 1.0, 2.0, 10.0)) == 2.5)
  }

  test("layer self time subtracts direct children") {
    val spans = Vector(
      Span(1, "exp.runCell", 0L, 10000000000L, 0, 0, "S2/f0"),
      Span(2, "ml.DT.fit", 1000000000L, 4000000000L, 1, 0, "S2/f0"),
      Span(3, "data.foldData", 5000000000L, 6000000000L, 1, 0, "S2/f0"),
      Span(4, "core.RDGBG.generate", 0L, 2000000000L, 0, 1, ""))
    val self = Trace.selfTimes(spans)
    assert(self("exp") == 6.0 && self("ml") == 3.0 && self("data") == 1.0 && self("core.RDGBG") == 2.0)
  }
}
