package repro.perf

import java.io.{File, PrintWriter}
import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Paths}
import org.apache.spark.ListenerBusDrain
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Metric names and units; BENCHMARK.json lists the same. */
object MetricNames {
  val endToEnd: Vector[(String, String)] = Vector(
    "setup_s" -> "s", "op_s.p50" -> "s", "op_s.tail" -> "s", "rows_per_s" -> "1/s",
    "cells_per_min" -> "1/min", "sampling_ratio" -> "frac", "dt_accuracy" -> "frac",
    "gbabs_gmean" -> "frac", "ok_frac" -> "frac",
  )

  val learners: Vector[String] = Vector("DT", "RF", "XGBoost", "LightGBM", "kNN")
  val gbsMethods: Vector[String] = Vector("GGBS", "IGBS")
  val samplers: Vector[String] = Vector("SRS", "SM", "BSM", "SMNC", "Tomek")

  val perLayer: Vector[(String, String)] =
    Vector("rdgbg.busy_s" -> "s", "rdgbg.balls" -> "count", "rdgbg.orphans" -> "count",
      "rdgbg.noise" -> "count", "rdgbg.ball_cover_frac" -> "frac",
      "gbabs.select_s" -> "s", "gbabs.borderline_balls" -> "count", "gbabs.sampled" -> "count",
      "spark.job_s" -> "s", "spark.tasks" -> "count", "spark.task_run_s.sum" -> "s",
      "spark.task_run_s.max" -> "s", "spark.task_skew" -> "ratio", "spark.sched_delay_s" -> "s",
      "spark.ser_s" -> "s", "spark.gc_s" -> "s", "spark.result_bytes" -> "B", "spark.driver_s" -> "s",
      "data.gen_s" -> "s", "data.fold_s" -> "s") ++
    gbsMethods.map(m => s"gbs.${m}_s" -> "s") ++
    samplers.map(m => s"sampling.${m}_s" -> "s") ++ Vector("sampling.synthetic_rows" -> "count") ++
    learners.flatMap(l => Vector(s"ml.$l.fit_s" -> "s", s"ml.$l.predict_s" -> "s")) ++
    Vector("ml.fit_rows" -> "count",
      "exp.cell_s.p50" -> "s", "exp.cell_s.max" -> "s", "exp.cell_self_s" -> "s", "exp.idle_core_s" -> "s",
      "jvm.gc_s" -> "s", "jvm.heap_peak_mb" -> "MB",
      "trace.op_s.p50" -> "s", "trace.untraced_op_s.p50" -> "s", "trace.overhead_s" -> "s")
}

/** One op's wall time, and the same time at the reference machine speed. */
final case class OpTime(rawS: Double, scaledS: Double, traced: Boolean)

/** Outcome of one benchmark run. */
final case class RunResult(correct: Boolean, attempted: Int, failed: Int,
                           metrics: Vector[(String, Double, String)], info: Map[String, Any]) {
  def line: String = Json.render(Map(
    "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
    "metrics" -> metrics.map { case (n, v, u) => n -> Map("value" -> v, "unit" -> u) }.toMap))
}

/** One run: set up, warm up, then a closed loop of ops for `seconds`. */
object Runner {
  val SetupOp = -3
  val ReplayOp = -2
  val Master = "local[4]"
  val WarmupMaxS = 5.0

  def startSpark(outDir: File): SparkSession = {
    val s = SparkSession.builder().master(Master).appName("gbbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.local.dir", new File(outDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(outDir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def stopSpark(s: SparkSession): Unit = {
    s.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }

  private def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum / 1e3

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  def run(w: Workload, seed: Long, seconds: Double, traced: Boolean, outDir: File,
          setups: Int): RunResult = {
    val errors = Vector.newBuilder[String]
    Trace.reset()
    Trace.enabled = traced
    Trace.op = SetupOp
    var spark: Option[SparkSession] = None
    var prepared: Prepared = null
    val setupTimes = (1 to setups).map { _ =>
      spark.foreach(stopSpark)
      val t0 = System.nanoTime()
      spark = if (w.usesSpark) Some(startSpark(outDir)) else None
      prepared = w.prepare(seed, spark)
      (System.nanoTime() - t0) / 1e9
    }
    Trace.enabled = false
    try {
      val sc = spark.map(_.sparkContext)
      val stats = if (traced) sc.map(SparkStats.attach) else None

      // Warm-up: at least two ops and half the measured time, at most
      // WarmupMaxS. The JIT keeps speeding ops up for several seconds, and
      // a median over a varying share of slow early ops would not be
      // steady. The first op's output is the reference every later op
      // must match.
      Trace.op = -1
      Reference.warm()
      prepared.preWarm()
      val warm = prepared.op(traced = false)
      prepared.check(warm)
      val digest = prepared.digest(warm)
      val warmStart = System.nanoTime()
      var warmOps = 1
      while (warmOps < 2 || (System.nanoTime() - warmStart) / 1e9 < math.min(0.5 * seconds, WarmupMaxS)) {
        require(prepared.digest(prepared.op(traced = false)) == digest, "warm-up ops disagree")
        Reference.time()
        warmOps += 1
      }

      heapPools.foreach(_.resetPeakUsage())
      val gc0 = gcSeconds
      // Op times are scaled by Reference.NominalS over the mean of the
      // reference kernel's passes before and after the op.
      val times = Vector.newBuilder[OpTime]
      val refs = Vector.newBuilder[Double]
      var refBefore = Reference.time()
      refs += refBefore
      var attempted = 0
      var failed = 0
      val start = System.nanoTime()
      // A traced run alternates untraced and traced ops, and needs one of each.
      while ((System.nanoTime() - start) / 1e9 < seconds || (traced && attempted < 2)) {
        val tracedOp = traced && attempted % 2 == 1
        Trace.op = attempted
        sc.foreach(_.setLocalProperty(SparkStats.OpProperty, attempted.toString))
        var okTime: Option[Double] = None
        try {
          Trace.enabled = tracedOp
          val t0 = System.nanoTime()
          val out = try prepared.op(tracedOp) finally Trace.enabled = false
          val dt = (System.nanoTime() - t0) / 1e9
          prepared.check(out)
          val d = prepared.digest(out)
          require(d == digest, s"output digest $d differs from the warm-up op's $digest")
          okTime = Some(dt)
        } catch {
          case NonFatal(e) => failed += 1; errors += s"op $attempted: $e"
        }
        val refAfter = Reference.time()
        refs += refAfter
        okTime.foreach(dt => times += OpTime(dt, dt * Reference.NominalS / ((refBefore + refAfter) / 2), tracedOp))
        refBefore = refAfter
        attempted += 1
      }
      val opWall = (System.nanoTime() - start) / 1e9
      val gcS = gcSeconds - gc0
      val heapMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
      sc.foreach(_.setLocalProperty(SparkStats.OpProperty, null))

      val quality = prepared.quality(warm)
      if (traced) {
        Trace.op = ReplayOp
        Trace.enabled = true
        try prepared.verifyAndReplay(warm)
        catch { case NonFatal(e) => errors += s"traced check: $e" }
        finally Trace.enabled = false
      }
      sc.foreach(ListenerBusDrain(_))

      val ts = times.result()
      val untracedT = ts.filterNot(_.traced).map(_.rawS)
      val tracedT = ts.filter(_.traced).map(_.rawS)
      val allT = ts.map(_.scaledS)
      val (tail, tailPct) = if (allT.nonEmpty) Stats.tail(allT) else (Double.NaN, Double.NaN)
      val okOps = allT.size
      val info = Map[String, Any](
        "workload" -> w.name, "seed" -> seed, "seconds" -> seconds, "trace" -> traced,
        "ops" -> okOps, "op_s.tail_pct" -> tailPct, "digest" -> digest, "op_wall_s" -> opWall,
        "warmup_ops" -> warmOps, "ref_nominal_s" -> Reference.NominalS,
        "setup_s.samples" -> setupTimes,
        "op_s.raw_samples" -> ts.map(_.rawS), "op_s.ref_samples" -> refs.result(),
        "op_s.raw_p50" -> (if (ts.isEmpty) Double.NaN else Stats.median(ts.map(_.rawS))))

      val metrics =
        if (!traced) {
          val busy = allT.sum
          Vector(
            ("setup_s", Stats.median(setupTimes), "s"),
            ("op_s.p50", if (allT.nonEmpty) Stats.median(allT) else Double.NaN, "s"),
            ("op_s.tail", tail, "s"),
            ("rows_per_s", okOps * prepared.rowsPerOp / busy, "1/s"),
            ("cells_per_min", okOps * prepared.cellsPerOp / (busy / 60), "1/min"),
            ("sampling_ratio", quality("sampling_ratio"), "frac"),
            ("dt_accuracy", quality("dt_accuracy"), "frac"),
            ("gbabs_gmean", quality("gbabs_gmean"), "frac"),
            ("ok_frac", if (attempted == 0) 0.0 else (attempted - failed).toDouble / attempted, "frac"))
        } else {
          val tracedOps = (0 until attempted).filter(_ % 2 == 1).toSet
          val layer = Layers.metrics(w, Trace.spans, Trace.counts,
            stats.map(_.tasks).getOrElse(Vector.empty), stats.map(_.jobs).getOrElse(Vector.empty),
            tracedOps, setups, sc.map(_.defaultParallelism).getOrElse(1))
          val p50 = (xs: Seq[Double]) => if (xs.isEmpty) Double.NaN else Stats.median(xs)
          val extra = Map(
            "jvm.gc_s" -> gcS / math.max(1, okOps),
            "jvm.heap_peak_mb" -> heapMb,
            "trace.op_s.p50" -> p50(tracedT),
            "trace.untraced_op_s.p50" -> p50(untracedT),
            "trace.overhead_s" -> (p50(tracedT) - p50(untracedT)))
          MetricNames.perLayer.map { case (n, u) => (n, layer.getOrElse(n, extra.getOrElse(n, 0.0)), u) }
        }

      if (traced) writeTrace(new File(outDir, s"trace-${w.name}-seed$seed.json"), stats)
      val errs = errors.result()
      errs.foreach(e => Console.err.println(s"[gbbench] FAILED $e"))
      val badValue = metrics.exists(m => m._2.isNaN || m._2.isInfinite)
      RunResult(errs.isEmpty && failed == 0 && okOps > 0 && !badValue, attempted, failed, metrics,
        info + ("errors" -> errs))
    } finally spark.foreach(stopSpark)
  }

  private def writeTrace(f: File, stats: Option[SparkStats]): Unit = {
    val spans = Trace.spans
    val t0 = spans.headOption.map(_.startNs).getOrElse(0L)
    val doc = Map(
      "spans" -> spans.map(s => Map("id" -> s.id, "name" -> s.name, "start_us" -> (s.startNs - t0) / 1000,
        "end_us" -> (s.endNs - t0) / 1000, "parent" -> s.parent, "op" -> s.op, "cell" -> s.cell)),
      "counts" -> Trace.counts.toSeq.map { case ((o, n), v) => Map("op" -> o, "name" -> n, "value" -> v) },
      "self_s" -> Trace.selfTimes(spans),
      "spark_tasks" -> stats.map(_.tasks.map(t => Map("op" -> t.op, "job" -> t.jobId,
        "partition" -> t.partition, "run_s" -> t.runS, "duration_s" -> t.durationS))).getOrElse(Vector.empty))
    f.getParentFile.mkdirs()
    val pw = new PrintWriter(f, "UTF-8")
    try pw.println(Json.render(doc)) finally pw.close()
  }
}

/** Per-layer metrics of a traced run, each per op. A value comes from the
  * traced ops when they recorded it, and otherwise from the one replay of
  * the internal calls (which covers one op's worth of work).
  */
object Layers {
  def metrics(w: Workload, spans: Seq[Span], counts: Map[(Int, String), Double],
              tasks: Seq[TaskRec], jobs: Seq[JobRec], tracedOps: Set[Int], setups: Int,
              cores: Int): Map[String, Double] = {
    val nOps = math.max(1, tracedOps.size).toDouble
    val opSpans = spans.filter(s => tracedOps(s.op)).groupBy(_.name)
    val replaySpans = spans.filter(_.op == Runner.ReplayOp).groupBy(_.name)
    def spanS(name: String): Double = opSpans.get(name) match {
      case Some(ss) => ss.map(_.seconds).sum / nOps
      case None     => replaySpans.get(name).map(_.map(_.seconds).sum).getOrElse(0.0)
    }
    val opCounts = counts.filter { case ((o, _), _) => tracedOps(o) }.groupBy(_._1._2)
    def cnt(name: String): Double = opCounts.get(name) match {
      case Some(cs) => cs.values.sum / nOps
      case None     => counts.getOrElse((Runner.ReplayOp, name), 0.0)
    }
    val setupGen = spans.filter(s => s.op == Runner.SetupOp && s.layer == "data").map(_.seconds).sum / setups

    val ml = MetricNames.learners.flatMap { l =>
      Vector(s"ml.$l.fit_s" -> spanS(s"ml.$l.fit"), s"ml.$l.predict_s" -> spanS(s"ml.$l.predict"))
    }.toMap
    val parts = Map(
      "rdgbg.busy_s" -> spanS("core.RDGBG.generate"),
      "gbabs.select_s" -> spanS("core.GBABS.sampleBalls"),
      "data.fold_s" -> spanS("data.foldData")) ++
      MetricNames.gbsMethods.map(m => s"gbs.${m}_s" -> spanS(s"gbs.$m")) ++
      MetricNames.samplers.map(m => s"sampling.${m}_s" -> spanS(s"sampling.$m"))
    val spark = SparkStats.aggregate(tasks, jobs, tracedOps)

    val isGrid = w.isInstanceOf[Grid]
    val cellRuns = tasks.filter(t => tracedOps(t.op)).map(_.runS)
    val exp =
      if (!isGrid || cellRuns.isEmpty) Map.empty[String, Double]
      else Map(
        "exp.cell_s.p50" -> Stats.median(cellRuns),
        "exp.cell_s.max" -> cellRuns.max,
        "exp.cell_self_s" -> (spark("spark.task_run_s.sum") - ml.values.sum - parts.values.sum),
        "exp.idle_core_s" -> (cores * spark("spark.job_s") - spark("spark.task_run_s.sum")))

    val input = cnt("rdgbg.input")
    Map(
      "rdgbg.balls" -> cnt("rdgbg.balls"),
      "rdgbg.orphans" -> cnt("rdgbg.orphans"),
      "rdgbg.noise" -> cnt("rdgbg.noise"),
      "rdgbg.ball_cover_frac" -> (if (input > 0) cnt("rdgbg.covered_in_balls") / input else 0.0),
      "gbabs.borderline_balls" -> cnt("gbabs.borderline_balls"),
      "gbabs.sampled" -> cnt("gbabs.sampled"),
      "data.gen_s" -> setupGen,
      "sampling.synthetic_rows" -> cnt("sampling.synthetic_rows"),
      "ml.fit_rows" -> cnt("ml.fit_rows"),
    ) ++ ml ++ parts ++ spark ++ exp
  }
}

/** Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`. */
object Main {
  private def usage(msg: String): Nothing = {
    Console.err.println(s"gbbench: $msg\nusage: --workload <${Workloads.full.map(_.name).mkString("|")}> " +
      "--seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  def main(args: Array[String]): Unit = {
    if (args.length % 2 != 0) usage("arguments come in --key value pairs")
    val kv = args.grouped(2).map(a => a(0) -> a(1)).toMap
    val known = Set("--workload", "--seed", "--seconds", "--trace")
    kv.keys.find(!known(_)).foreach(k => usage(s"unknown argument $k"))
    val w = kv.get("--workload").flatMap(Workloads.byName(_)).getOrElse(usage("unknown or missing --workload"))
    val seed = kv.get("--seed").flatMap(_.toLongOption).getOrElse(usage("--seed must be an integer"))
    val seconds = kv.get("--seconds").flatMap(_.toDoubleOption).filter(_ > 0).getOrElse(usage("--seconds must be > 0"))
    val traced = kv.get("--trace") match {
      case Some("0") => false
      case Some("1") => true
      case _         => usage("--trace must be 0 or 1")
    }
    val outDir = new File(sys.props.getOrElse("gbbench.out", ".bench_build/gbbench"))
    outDir.mkdirs()

    val res = Runner.run(w, seed, seconds, traced, outDir, setups = if (w.usesSpark) 5 else 9)
    val digestOk = checkDigestAcrossRuns(outDir, w.name, seed, res.info("digest").toString)
    val env = Map[String, Any](
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "xmx_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "spark_master" -> (if (w.usesSpark) Runner.Master else "none"),
      "git_sha" -> sys.props.getOrElse("gbbench.git_sha", "unknown"),
      "source_sha1" -> sys.props.getOrElse("gbbench.source_sha1", "unknown"))
    val info = res.info ++ env + ("digest_matches_earlier_runs" -> digestOk)
    val out = res.copy(correct = res.correct && digestOk, info = info)
    val infoLine = Json.render(Map("info" -> info))
    val pw = new PrintWriter(new File(outDir, s"result-${w.name}-seed$seed-trace${if (traced) 1 else 0}.json"), "UTF-8")
    try { pw.println(infoLine); pw.println(out.line) } finally pw.close()
    println(infoLine)
    println(out.line)
    System.out.flush()
    sys.exit(0)
  }

  /** The sampled-id digest of a seed must not change between runs of the
    * same build; the first run of a seed records it.
    */
  private def checkDigestAcrossRuns(outDir: File, workload: String, seed: Long, digest: String): Boolean = {
    val build = sys.props.getOrElse("gbbench.source_sha1", "unknown")
    val f = Paths.get(outDir.getPath, s"digest-$workload-seed$seed-$build.txt")
    if (Files.exists(f)) {
      val earlier = new String(Files.readAllBytes(f), "UTF-8").trim
      if (earlier != digest) Console.err.println(s"[gbbench] FAILED digest $digest differs from earlier run's $earlier")
      earlier == digest
    } else { Files.write(f, digest.getBytes("UTF-8")); true }
  }
}
