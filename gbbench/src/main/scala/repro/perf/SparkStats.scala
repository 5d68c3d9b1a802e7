package repro.perf

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One finished Spark task, times in seconds. `op` is the benchmark op the
  * task's job ran for (-1 when the job carried no op property).
  */
final case class TaskRec(op: Int, jobId: Int, partition: Int, durationS: Double, runS: Double,
                         deserS: Double, resultSerS: Double, gettingResultS: Double,
                         gcS: Double, resultBytes: Long) {
  /** Spark UI's scheduler delay: wall time outside run, (de)serialisation and result fetch. */
  def schedDelayS: Double = math.max(0.0, durationS - runS - deserS - resultSerS - gettingResultS)
}

/** A finished Spark job with its wall time in seconds. */
final case class JobRec(op: Int, jobId: Int, wallS: Double)

/** Listener the benchmark registers on the traced run. Jobs are attributed
  * to ops through the `gbbench.op` local property set before each action,
  * because listener events arrive asynchronously, after the op has moved on.
  */
final class SparkStats extends SparkListener {
  private val jobOp = mutable.Map.empty[Int, Int]
  private val jobStart = mutable.Map.empty[Int, Long]
  private val stageJob = mutable.Map.empty[Int, Int]
  private val tasksB = mutable.ArrayBuffer.empty[TaskRec]
  private val jobsB = mutable.ArrayBuffer.empty[JobRec]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val op = Option(e.properties).flatMap(p => Option(p.getProperty(SparkStats.OpProperty))).map(_.toInt).getOrElse(-1)
    jobOp(e.jobId) = op
    jobStart(e.jobId) = e.time
    e.stageIds.foreach(s => stageJob(s) = e.jobId)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobsB += JobRec(jobOp.getOrElse(e.jobId, -1), e.jobId, (e.time - jobStart.getOrElse(e.jobId, e.time)) / 1e3)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    val info = e.taskInfo
    if (m != null && info != null) {
      val job = stageJob.getOrElse(e.stageId, -1)
      tasksB += TaskRec(jobOp.getOrElse(job, -1), job, info.index, info.duration / 1e3,
        m.executorRunTime / 1e3, m.executorDeserializeTime / 1e3, m.resultSerializationTime / 1e3,
        (if (info.gettingResult) info.finishTime - info.gettingResultTime else 0L) / 1e3,
        m.jvmGCTime / 1e3, m.resultSize)
    }
  }

  def tasks: Vector[TaskRec] = synchronized(tasksB.toVector)
  def jobs: Vector[JobRec] = synchronized(jobsB.toVector)
}

object SparkStats {
  val OpProperty = "gbbench.op"

  /** Registers a fresh listener on `sc`. */
  def attach(sc: SparkContext): SparkStats = { val s = new SparkStats; sc.addSparkListener(s); s }

  /** Per-op means of the `spark.*` metrics over the ops in `ops`.
    * `spark.task_skew` and `spark.driver_s` are computed per job and
    * then averaged, so one slow op does not hide behind another's mean.
    */
  def aggregate(tasks: Seq[TaskRec], jobs: Seq[JobRec], ops: Set[Int]): Map[String, Double] = {
    val n = ops.size.toDouble
    val ts = tasks.filter(t => ops(t.op))
    val js = jobs.filter(j => ops(j.op))
    def perOp(x: Double) = if (n == 0) 0.0 else x / n
    val byJob = ts.groupBy(_.jobId)
    val skews = byJob.values.map { jt =>
      val mean = jt.map(_.runS).sum / jt.size
      if (mean > 0) jt.map(_.runS).max / mean else 1.0
    }
    val driver = js.map(j => j.wallS - byJob.get(j.jobId).map(_.map(_.durationS).max).getOrElse(0.0))
    val maxPerOp = ts.groupBy(_.op).values.map(_.map(_.runS).max)
    Map(
      "spark.job_s" -> perOp(js.map(_.wallS).sum),
      "spark.tasks" -> perOp(ts.size),
      "spark.task_run_s.sum" -> perOp(ts.map(_.runS).sum),
      "spark.task_run_s.max" -> (if (maxPerOp.isEmpty) 0.0 else Stats.mean(maxPerOp.toSeq)),
      "spark.task_skew" -> (if (skews.isEmpty) 0.0 else Stats.mean(skews.toSeq)),
      "spark.sched_delay_s" -> perOp(ts.map(_.schedDelayS).sum),
      "spark.ser_s" -> perOp(ts.map(t => t.deserS + t.resultSerS).sum),
      "spark.gc_s" -> perOp(ts.map(_.gcS).sum),
      "spark.result_bytes" -> perOp(ts.map(_.resultBytes.toDouble).sum),
      "spark.driver_s" -> perOp(driver.sum),
    )
  }
}
