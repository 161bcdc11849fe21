package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.{PerfbenchAccess, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import scala.collection.mutable

/** One call into a module, timed on the Spark driver. `parent` is -1 for a root
  * span. Nano times give durations; milli times share the clock of Spark's
  * job events, so job intervals can be laid over the span.
  */
final case class Span(id: Int, name: String, parent: Int, iteration: Int,
                      startNs: Long, endNs: Long, startMs: Long, endMs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Wraps calls into the program's modules. */
trait Tracer {
  def span[A](name: String)(body: => A): A
}

object Tracer {
  /** The untraced run: calls go straight through. */
  object Off extends Tracer {
    def span[A](name: String)(body: => A): A = body
  }
}

/** Keeps spans in memory. Each span runs under its own Spark job group
  * (`perfbench-<id>`) of the active session, so [[SparkCounters]] can
  * charge jobs, tasks and shuffle bytes to the innermost span that launched
  * them. `iteration` tags new spans: the timed iteration, or a negative
  * phase number outside the timed loop.
  */
final class SpanTracer extends Tracer {
  val spans = mutable.ArrayBuffer.empty[Span]
  var iteration = -1
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    val sc = SparkSession.active.sparkContext
    val outerGroup = Option(sc.getLocalProperty(SpanTracer.JobGroupKey))
    sc.setJobGroup(SpanTracer.group(id), name)
    open = id :: open
    val s0 = System.nanoTime()
    val m0 = System.currentTimeMillis()
    try body
    finally {
      val s1 = System.nanoTime()
      val m1 = System.currentTimeMillis()
      open = open.tail
      outerGroup match {
        case Some(g) => sc.setJobGroup(g, g)
        case None    => sc.clearJobGroup()
      }
      spans += Span(id, name, parent, iteration, s0, s1, m0, m1)
    }
  }

  /** Duration minus the part covered by direct children (which, on one
    * thread, never overlap).
    */
  def selfSeconds(s: Span): Double =
    s.seconds - spans.iterator.filter(_.parent == s.id).map(_.seconds).sum
}

object SpanTracer {
  /** The local property `SparkContext.setJobGroup` sets. */
  val JobGroupKey = "spark.jobGroup.id"

  def group(spanId: Int): String = s"perfbench-$spanId"
}

/** Spark work charged to one job group. */
final class GroupStats {
  var jobs = 0
  var tasks = 0L
  var taskRunMs = 0L
  var taskCpuNs = 0L
  var shuffleWriteBytes = 0L
  var shuffleReadBytes = 0L
  var rowsCollected = 0L
  val jobIntervalsMs = mutable.ArrayBuffer.empty[(Long, Long)]
}

/** Counts jobs, tasks, task time, CPU, shuffle bytes and collected rows per
  * job group. Read only after [[PerfbenchAccess.drain]].
  */
final class SparkCounters extends SparkListener {
  private val groups = mutable.Map.empty[String, GroupStats]
  private val stageGroup = mutable.Map.empty[Int, String]
  private val jobStart = mutable.Map.empty[Int, (String, Long)]
  private val sqlGroup = mutable.Map.empty[Long, String]

  def stats(group: String): GroupStats = synchronized {
    groups.getOrElse(group, new GroupStats)
  }

  private def of(group: String): GroupStats = groups.getOrElseUpdate(group, new GroupStats)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(SpanTracer.JobGroupKey)))
      .foreach { g =>
        of(g).jobs += 1
        e.stageIds.foreach(stageGroup(_) = g)
        jobStart(e.jobId) = (g, e.time)
      }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (g, t0) => of(g).jobIntervalsMs += ((t0, e.time)) }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (g <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val s = of(g)
      s.tasks += 1
      s.taskRunMs += m.executorRunTime
      s.taskCpuNs += m.executorCpuTime
      s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      s.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
    }
  }

  /** Rows a `collect` brought to the Spark driver: the output-row count of the
    * topmost operator of its physical plan that keeps one.
    */
  override def onOtherEvent(e: SparkListenerEvent): Unit = synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart =>
        s.jobGroupId.foreach(sqlGroup(s.executionId) = _)
      case end: SparkListenerSQLExecutionEnd =>
        for (g <- sqlGroup.remove(end.executionId);
             plan <- PerfbenchAccess.collectedPlan(end);
             rows <- SparkCounters.outputRows(plan))
          of(g).rowsCollected += rows
      case _ =>
    }
  }
}

object SparkCounters {
  def outputRows(plan: SparkPlan): Option[Long] =
    plan.metrics.get("numOutputRows").map(_.value).orElse(plan match {
      case a: AdaptiveSparkPlanExec => outputRows(a.executedPlan)
      case q: QueryStageExec        => outputRows(q.plan)
      case p if p.children.size == 1 => outputRows(p.children.head)
      case _                        => None
    })

  /** Milliseconds of `[from, to)` during which no job was running. */
  def idleMs(from: Long, to: Long, jobs: Seq[(Long, Long)]): Long = {
    var busy = 0L
    var cursor = from
    jobs.map { case (a, b) => (math.max(a, from), math.min(b, to)) }
      .filter { case (a, b) => b > a }.sortBy(_._1).foreach { case (a, b) =>
        if (b > cursor) {
          busy += b - math.max(a, cursor)
          cursor = b
        }
      }
    (to - from) - busy
  }
}
