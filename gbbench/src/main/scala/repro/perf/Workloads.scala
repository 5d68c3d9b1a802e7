package repro.perf

import java.security.MessageDigest
import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.core.{GBABS, Point, RDGBG, RDGBGResult, SparkGBABS}
import repro.data.DatasetGen
import repro.exp.{BenchConfig, CellKey, CellResult, Experiment}
import repro.ml.{Classifier, DecisionTree, Learner, Metrics}
import scala.util.Random

/** What one op returned: sampled ids (sampling workloads) or the rows of
  * each grid part, in part order.
  */
final case class OpOut(ids: Vector[Long], grids: Vector[Vector[CellResult]])

/** A workload after set-up: inputs generated, ready to run ops. */
trait Prepared {
  /** Input rows one op consumes. */
  def rowsPerOp: Int
  /** Experiment cells one op completes; a sampling call counts as one. */
  def cellsPerOp: Int
  /** One op of the closed loop. With `traced`, layer calls are wrapped in spans. */
  def op(traced: Boolean): OpOut
  /** Throws if the output is wrong. Runs on every op. */
  def check(out: OpOut): Unit
  /** Stable fingerprint of an op's output. */
  def digest(out: OpOut): String
  /** `sampling_ratio`, `dt_accuracy` and `gbabs_gmean` of an op's output. */
  def quality(out: OpOut): Map[String, Double]
  /** Traced run only, once and outside the timed ops: the deeper output
    * checks, and replays of the calls a public entry point makes
    * internally, so that their layers can be timed from outside.
    */
  def verifyAndReplay(out: OpOut): Unit
  /** Untimed work before the warm-up ops that compiles the ops' hot code. */
  def preWarm(): Unit = ()
}

sealed trait Workload {
  def name: String
  def usesSpark: Boolean
  def prepare(seed: Long, spark: Option[SparkSession]): Prepared
}

object Workloads {
  val Rho = 5
  /** Seed of the sampling algorithm itself: the API default, as the ops call it. */
  val AlgoSeed = 42L
  private val dtDepth = BenchConfig().dtDepth

  /** The workloads the benchmark runs. */
  val full: Vector[Workload] = Vector(
    HighDim(n = 800, p = 48, noise = 0.20, holdout = 1000),
    SparkS10(n = 2400, p = 10, noise = 0.10, parts = 4, holdout = 1000),
    Grid("grids", Vector(
      GridPart("tableIV", BenchConfig(maxN = 100, maxP = 8), Seq(1, 3, 5, 12), Seq(0, 1), 0.20,
        Experiment.coreMethods, Experiment.learners),
      GridPart("imbalanced", BenchConfig(maxN = 300), Seq(2, 5, 8, 10), Seq(0, 1), 0.0,
        Experiment.imbalancedMethods, c => Vector(DecisionTree(maxDepth = c.dtDepth))))),
  )

  /** Tiny configurations of the same workloads for the benchmark's own tests. */
  val smoke: Vector[Workload] = Vector(
    HighDim(n = 300, p = 8, noise = 0.20, holdout = 300),
    SparkS10(n = 240, p = 4, noise = 0.10, parts = 4, holdout = 60),
    Grid("grids", Vector(
      GridPart("tableIV", BenchConfig.unit, Seq(1, 12), Seq(0), 0.20,
        Experiment.coreMethods, Experiment.learners),
      GridPart("imbalanced", BenchConfig.unit, Seq(2, 5), Seq(0), 0.0,
        Experiment.imbalancedMethods, c => Vector(DecisionTree(maxDepth = c.dtDepth))))),
  )

  def byName(name: String): Option[Workload] = full.find(_.name == name)

  // ------------------------------------------------------------ shared parts

  /** Data seed of the repository's table benches (`BenchConfig().seed`). */
  val TableSeed: Long = BenchConfig().seed

  /** Training points with label noise, and a clean held-out set. The
    * analog itself (its class geometry and full N) is fixed, as a real
    * dataset is; the workload seed draws the rows of both sets and the
    * label noise, so seeds differ in sample, not in difficulty.
    */
  def trainAndHoldout(specIdx: Int, n: Int, p: Int, noise: Double, holdout: Int,
                      seed: Long): (Vector[Point], Vector[Point]) =
    Trace.span("data.generate") {
      val pool = DatasetGen.generate(DatasetGen.specs(specIdx), maxP = p, seed = TableSeed)
      require(pool.size >= n + holdout, s"analog has ${pool.size} rows, fewer than n=$n + holdout=$holdout")
      val (train, test) = new Random(seed).shuffle(pool).take(n + holdout).splitAt(n)
      (DatasetGen.withNoise(train, noise, seed + 1), test)
    }

  def sha1(parts: Iterator[String]): String = {
    val md = MessageDigest.getInstance("SHA-1")
    parts.foreach(s => md.update((s + "\n").getBytes("UTF-8")))
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  def checkSampledIds(ids: Vector[Long], input: Set[Long]): Unit = {
    require(ids.nonEmpty, "empty sample")
    require(ids.distinct.size == ids.size, s"${ids.size - ids.distinct.size} duplicate sampled ids")
    val stray = ids.filterNot(input)
    require(stray.isEmpty, s"${stray.size} sampled ids not in the input, e.g. ${stray.head}")
  }

  /** DT fitted on the sample, scored on the held-out set: (accuracy, G-mean). */
  def dtScore(sample: Vector[Point], test: Vector[Point], seed: Long): (Double, Double) = {
    val model = DecisionTree(maxDepth = dtDepth).fit(sample, seed)
    val pred = model.predictAll(test)
    val actual = test.map(_.label)
    (Metrics.accuracy(pred, actual), Metrics.gmean(pred, actual))
  }

  /** RD-GBG invariants: purity 1.0, every ball covers its points, no two
    * radius > 0 balls overlap, and balls plus noise partition the input.
    */
  def checkRdgbg(res: RDGBGResult, data: Seq[Point]): Unit = {
    res.balls.foreach { b =>
      require(b.purity == 1.0, s"impure ball (purity ${b.purity})")
      require(b.covers(), "a ball does not cover its points")
    }
    val big = res.balls.filter(_.radius > 0)
    for (i <- big.indices; j <- i + 1 until big.size)
      require(!big(i).overlaps(big(j)), s"balls $i and $j overlap")
    require(res.covered + res.noise.size == data.size,
      s"covered ${res.covered} + noise ${res.noise.size} != |D| ${data.size}")
    val ids = res.balls.flatMap(_.points.map(_.id)) ++ res.noise.map(_.id)
    require(ids.toSet == data.map(_.id).toSet && ids.size == data.size, "balls and noise do not partition D")
  }

  /** RD-GBG then the borderline pass, each under its own span, composed as
    * `GBABS.run` composes them (a single-class ball set keeps every sample).
    */
  def tracedGbabs(data: Vector[Point], seed: Long): (Vector[Point], RDGBGResult) = {
    val gen = Trace.span("core.RDGBG.generate")(RDGBG.generate(data, Rho, seed))
    Trace.count("rdgbg.balls", gen.balls.size)
    Trace.count("rdgbg.orphans", gen.balls.count(_.isOrphan))
    Trace.count("rdgbg.noise", gen.noise.size)
    Trace.count("rdgbg.covered_in_balls", gen.balls.filter(_.radius > 0).map(_.size).sum)
    Trace.count("rdgbg.input", data.size)
    val sampled =
      if (gen.balls.map(_.label).distinct.size <= 1) gen.balls.flatMap(_.points)
      else {
        val (s, borderline) = Trace.span("core.GBABS.sampleBalls")(GBABS.sampleBalls(gen.balls, data.head.dim))
        Trace.count("gbabs.borderline_balls", borderline.size)
        s
      }
    Trace.count("gbabs.sampled", sampled.size)
    (sampled, gen)
  }

  /** The traced composition must give exactly what `GBABS.run` gives. */
  def checkComposition(data: Vector[Point], seed: Long): Vector[Long] = {
    val (sampled, gen) = tracedGbabs(data, seed)
    checkRdgbg(gen, data)
    val ref = GBABS.run(data, Rho, seed)
    require(ref.sampled.map(_.id) == sampled.map(_.id) && ref.balls.size == gen.balls.size,
      "GBABS.run differs from RDGBG.generate + GBABS.sampleBalls")
    sampled.map(_.id)
  }
}

import Workloads._

/** The two sampling workloads: an op returns the sampled ids of `train`,
  * and a DT fitted on the sample is scored on `test`.
  */
abstract class SamplingPrepared(data: (Vector[Point], Vector[Point]), seed: Long) extends Prepared {
  val (train, test) = data
  private val inputIds = train.map(_.id).toSet
  private val byId = train.map(p => p.id -> p).toMap
  val rowsPerOp: Int = train.size
  val cellsPerOp = 1

  def check(out: OpOut): Unit = checkSampledIds(out.ids, inputIds)
  def digest(out: OpOut): String = sha1(out.ids.sorted.iterator.map(_.toString))

  def quality(out: OpOut): Map[String, Double] = {
    val (acc, gm) = dtScore(out.ids.map(byId), test, seed)
    Map("sampling_ratio" -> out.ids.size.toDouble / train.size, "dt_accuracy" -> acc, "gbabs_gmean" -> gm)
  }
}

/** `GBABS.run` on the S13 (USPS) analog, no Spark, no learners. */
final case class HighDim(n: Int, p: Int, noise: Double, holdout: Int) extends Workload {
  val name = "gbabs-highdim"
  val usesSpark = false

  def prepare(seed: Long, spark: Option[SparkSession]): Prepared =
    new SamplingPrepared(trainAndHoldout(12, n, p, noise, holdout, seed), seed) {
      def op(traced: Boolean): OpOut =
        if (traced) OpOut(tracedGbabs(train, AlgoSeed)._1.map(_.id), Vector.empty)
        else OpOut(GBABS.run(train, Rho, AlgoSeed).sampled.map(_.id), Vector.empty)

      def verifyAndReplay(out: OpOut): Unit =
        require(checkComposition(train, AlgoSeed) == out.ids, "traced op output differs from GBABS.run")
    }
}

/** `SparkGBABS.sample(df).collect()` on a cached, round-robin partitioned
  * DataFrame of the S10 (magic) analog.
  */
final case class SparkS10(n: Int, p: Int, noise: Double, parts: Int, holdout: Int) extends Workload {
  val name = "spark-s10"
  val usesSpark = true

  def prepare(seed: Long, spark: Option[SparkSession]): Prepared =
    new SamplingPrepared(trainAndHoldout(9, n, p, noise, holdout, seed), seed) {
      private val session = spark.getOrElse(sys.error("spark-s10 needs a SparkSession"))
      private val df: DataFrame = Trace.span("data.pointsToDF") {
        val d = SynthData.pointsToDF(session, train).repartition(parts).cache()
        require(d.count() == n, "cached DataFrame lost rows")
        d
      }

      def op(traced: Boolean): OpOut =
        OpOut(SparkGBABS.sample(df, Rho, AlgoSeed).collect().map(_.getAs[Long]("id")).toVector, Vector.empty)

      /** Each partition's output must equal `GBABS.run(rows, ρ, AlgoSeed + partitionId)`. */
      def verifyAndReplay(out: OpOut): Unit = {
        val byPart = SparkGBABS.asRows(df).rdd
          .mapPartitionsWithIndex((i, it) => Iterator(i -> it.map(r => Point(r.features, r.label, r.id)).toVector))
          .collect()
        require(byPart.map(_._2.size).sum == n, "partitions do not hold every row")
        val expected = byPart.toVector.flatMap { case (i, pts) =>
          if (pts.isEmpty) Vector.empty else Trace.inCell(s"partition$i")(checkComposition(pts, AlgoSeed + i))
        }
        require(expected.sorted == out.ids.sorted, "spark-s10 output differs from per-partition GBABS.run")
      }
    }
}

/** One `Experiment.runGrid` call: its (spec, fold) cells, configuration,
  * methods and learners.
  */
final case class GridPart(label: String, cfg: BenchConfig, specIdxs: Seq[Int], folds: Seq[Int],
                          noise: Double, methods: Vector[String],
                          learners: BenchConfig => Vector[Learner]) {
  val keys: Vector[CellKey] = for (s <- specIdxs.toVector; f <- folds) yield CellKey(s, noise, f)
  /** Trace cell labels, one per key, in the order `runGrid` partitions them. */
  val cellLabels: Vector[String] = keys.map(k => s"$label/${DatasetGen.specs(k.specIdx).id}/f${k.fold}")
  val plain: Vector[Learner] = learners(cfg)
  val traced: Vector[Learner] = plain.map(l => TracedLearner(l, cellLabels))
}

/** An op runs `Experiment.runGrid` once per part, one after the other, on
  * the local cluster.
  */
final case class Grid(name: String, parts: Vector[GridPart]) extends Workload {
  val usesSpark = true

  /** The cells are the table benches' own, under each part's fixed data
    * seed, and `seed` is not used: on these small imbalanced analogs a
    * minority class holds 3 samples, so G-mean would flip between 0 and 1
    * from seed to seed. The output, and its digest, are the same for every
    * seed.
    */
  def prepare(seed: Long, spark: Option[SparkSession]): Prepared = new Prepared {
    private val session = spark.getOrElse(sys.error(s"$name needs a SparkSession"))
    val rowsPerOp: Int = parts.map(p => p.keys.map(k => math.min(DatasetGen.specs(k.specIdx).n, p.cfg.maxN)).sum).sum
    val cellsPerOp: Int = parts.map(_.keys.size).sum

    /** Runs every cell once on the driver thread. The grid's four task
      * threads leave the JIT no spare core, so warming with the grid
      * itself takes 10 s or more; one sequential pass compiles the same
      * code in about 2 s.
      */
    override def preWarm(): Unit =
      parts.foreach(p => p.keys.foreach(k => Experiment.runCell(k, p.cfg, p.methods, p.plain)))

    def op(isTraced: Boolean): OpOut =
      OpOut(Vector.empty, parts.map(p =>
        Experiment.runGrid(session, p.keys, p.cfg, p.methods, if (isTraced) p.traced else p.plain)))

    def check(out: OpOut): Unit = {
      require(out.grids.size == parts.size, s"${out.grids.size} grid results, expected ${parts.size}")
      parts.zip(out.grids).foreach { case (p, rows) =>
        val expected = for (k <- p.keys; m <- p.methods; l <- p.plain)
          yield (DatasetGen.specs(k.specIdx).id, k.fold, m, l.name)
        require(rows.size == expected.size, s"${p.label}: ${rows.size} grid rows, expected ${expected.size}")
        require(rows.map(r => (r.specId, r.fold, r.method, r.learner)).toSet == expected.toSet,
          s"${p.label}: grid rows do not cover methods x learners for every cell")
        rows.foreach { r =>
          require(r.acc >= 0.0 && r.acc <= 1.0 && r.gmean >= 0.0 && r.gmean <= 1.0, s"acc or gmean outside [0, 1] in $r")
          // Oversamplers add synthetic rows, so only their ratio may exceed 1.
          val ratioOk = if (Grid.oversamplers(r.method)) r.ratio >= 1.0 else r.ratio > 0.0 && r.ratio <= 1.0
          require(ratioOk, s"sampling ratio out of range in $r")
        }
      }
    }

    def digest(out: OpOut): String =
      sha1(parts.zip(out.grids).flatMap { case (p, rows) =>
        rows.map(r => s"${p.label},${r.specId},${r.fold},${r.method},${r.learner},${r.acc},${r.gmean},${r.ratio}")
      }.sorted.iterator)

    def quality(out: OpOut): Map[String, Double] = {
      val gb = out.grids.flatten.filter(_.method == "GBABS")
      val dt = gb.filter(_.learner == "DT")
      Map("sampling_ratio" -> Stats.mean(gb.map(_.ratio)),
          "dt_accuracy" -> Stats.mean(dt.map(_.acc)),
          "gbabs_gmean" -> Stats.mean(dt.map(_.gmean)))
    }

    /** Replays, per cell and in parallel as the grid runs, the `foldData`
      * and `applyMethod` calls `runCell` makes internally, so the data,
      * sampling, gbs and core layers can be timed from outside.
      */
    def verifyAndReplay(out: OpOut): Unit = parts.foreach { p =>
      val cc = p.cfg; val ms = p.methods; val ls = p.cellLabels; val ks = p.keys
      session.sparkContext.parallelize(ks.indices, ks.size).foreach { i =>
        Trace.inCell(ls(i)) {
          val key = ks(i)
          val (spec, train, _) = Trace.span("data.foldData")(Experiment.foldData(key, cc))
          val seed = cc.seed + i
          var gbabsRatio = 1.0
          ms.foreach {
            case "None" =>
            case "GBABS" =>
              val sampled = tracedGbabs(train, seed)._1
              if (sampled.nonEmpty) gbabsRatio = sampled.size.toDouble / train.size
            case m =>
              val (s, _) = Trace.span(Grid.spanName(m))(
                Experiment.applyMethod(m, train, spec, cc, seed, gbabsRatio))
              if (s.size > train.size) Trace.count("sampling.synthetic_rows", s.size - train.size)
          }
        }
      }
    }
  }
}

object Grid {
  val oversamplers: Set[String] = Set("SM", "BSM", "SMNC")

  def spanName(method: String): String = method match {
    case "GGBS" | "IGBS" => s"gbs.$method"
    case m               => s"sampling.$m"
  }
}

/** A learner whose fit and predict calls are recorded as `ml` spans. The
  * span's cell is the key of the Spark partition the call ran in: `runGrid`
  * gives each cell key its own partition, in key order.
  */
final case class TracedLearner(inner: Learner, cellLabels: Vector[String]) extends Learner {
  def name: String = inner.name

  private def cell: String = Option(TaskContext.get()).map(_.partitionId()) match {
    case Some(i) if i < cellLabels.size => cellLabels(i)
    case Some(i)                        => s"partition$i"
    case None                           => ""
  }

  def fit(train: Vector[Point], seed: Long): Classifier = Trace.inCell(cell) {
    Trace.count("ml.fit_rows", train.size)
    TracedModel(s"ml.$name.predict", Trace.span(s"ml.$name.fit")(inner.fit(train, seed)), cell)
  }
}

final case class TracedModel(spanName: String, inner: Classifier, cell: String) extends Classifier {
  def predict(x: Array[Double]): Int = inner.predict(x)
  override def predictAll(test: Seq[Point]): Vector[Int] =
    Trace.inCell(cell)(Trace.span(spanName)(inner.predictAll(test)))
}
