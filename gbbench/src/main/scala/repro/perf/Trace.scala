package repro.perf

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import java.util.concurrent.atomic.AtomicLong
import java.util.concurrent.atomic.DoubleAdder
import scala.jdk.CollectionConverters._

/** One timed call into a layer. `parent` is 0 for a root span; `cell` names
  * the grid cell (or Spark task) a span ran for, empty outside the grids.
  */
final case class Span(id: Long, name: String, startNs: Long, endNs: Long,
                      parent: Long, op: Int, cell: String) {
  def seconds: Double = (endNs - startNs) / 1e9
  /** Layer of a span name: `core.RDGBG.generate` -> `core.RDGBG`, `ml.DT.fit` -> `ml`. */
  def layer: String = Trace.layerOf(name)
}

/** In-memory tracer for the traced run. Spans and counts are kept in
  * memory and written out once at the end; nothing is recorded while
  * `enabled` is false, so untraced ops pay one volatile read per call.
  *
  * Spark runs `local[4]` inside this JVM, so task threads record into the
  * same tracer; a task's spans carry their cell through a thread-local tag.
  */
object Trace {
  @volatile var enabled: Boolean = false
  @volatile var op: Int = -1

  private val ids = new AtomicLong(0)
  private val spanQ = new ConcurrentLinkedQueue[Span]()
  private val countMap = new ConcurrentHashMap[String, DoubleAdder]()
  private val stack = ThreadLocal.withInitial[List[Long]](() => Nil)
  private val cellTag = ThreadLocal.withInitial[String](() => "")

  def layerOf(name: String): String = {
    val parts = name.split('.')
    if (parts(0) == "core" && parts.length > 1) s"core.${parts(1)}" else parts(0)
  }

  /** Time `f` as span `name`, child of the innermost open span of this thread. */
  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val id = ids.incrementAndGet()
      val outer = stack.get()
      stack.set(id :: outer)
      val t0 = System.nanoTime()
      try f
      finally {
        val t1 = System.nanoTime()
        stack.set(outer)
        spanQ.add(Span(id, name, t0, t1, outer.headOption.getOrElse(0L), op, cellTag.get()))
      }
    }

  /** Run `f` with every span it opens on this thread tagged with `cell`. */
  def inCell[A](cell: String)(f: => A): A = {
    val prev = cellTag.get()
    cellTag.set(cell)
    try f finally cellTag.set(prev)
  }

  /** Add `v` to counter `name` of the current op. */
  def count(name: String, v: Double): Unit =
    if (enabled) countMap.computeIfAbsent(s"$op\t$name", _ => new DoubleAdder).add(v)

  def spans: Vector[Span] = spanQ.asScala.toVector.sortBy(_.startNs)
  /** Counters keyed by (op, name). */
  def counts: Map[(Int, String), Double] = countMap.asScala.map { case (k, v) =>
    val Array(o, n) = k.split("\t", 2)
    (o.toInt, n) -> v.sum()
  }.toMap

  def reset(): Unit = { spanQ.clear(); countMap.clear(); op = -1 }

  /** Self time per layer: each span's duration minus the time its direct
    * children cover. Children run inside their parent on the same thread,
    * so their durations do not overlap one another.
    */
  def selfTimes(all: Seq[Span]): Map[String, Double] = {
    val childSum = all.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.seconds).sum }
    all.groupBy(_.layer).map { case (layer, ss) =>
      layer -> ss.map(s => s.seconds - childSum.getOrElse(s.id, 0.0)).sum
    }
  }
}
