package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Spans and counters recorded from the benchmark's own code, around its
  * calls into the program's layers. When `on` is false every call is a
  * plain pass-through, so the untraced run pays nothing but a branch.
  *
  * A span is (name, start, end, parent); spans stay in memory and are
  * aggregated into per-layer metrics when the run ends.
  */
final class Trace(var on: Boolean) {
  final case class Span(name: String, startNs: Long, endNs: Long, parent: Int)

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val stack = mutable.Stack.empty[Int]
  private val counters = mutable.LinkedHashMap.empty[String, Double]

  def span[T](name: String)(body: => T): T =
    if (!on) body
    else {
      val parent = if (stack.isEmpty) -1 else stack.top
      val idx = spans.length
      spans += Span(name, System.nanoTime(), 0L, parent)
      stack.push(idx)
      try body
      finally {
        stack.pop()
        spans(idx) = spans(idx).copy(endNs = System.nanoTime())
      }
    }

  /** Like `span`, and also records the bytes the calling thread allocated
    * inside it as the counter `<name>.alloc_mb`.
    */
  def allocSpan[T](name: String)(body: => T): T =
    if (!on) body
    else {
      val a0 = Jvm.threadAllocated()
      try span(name)(body)
      finally add(s"$name.alloc_mb", (Jvm.threadAllocated() - a0) / Jvm.MB)
    }

  def add(name: String, v: Double): Unit =
    if (on) counters(name) = counters.getOrElse(name, 0.0) + v

  /** Durations (ns) of every span with this name, in call order. */
  def durations(name: String): Array[Long] =
    spans.iterator.filter(_.name == name).map(s => s.endNs - s.startNs).toArray

  def seconds(name: String): Double = durations(name).sum / 1e9

  def calls(name: String): Long = spans.count(_.name == name).toLong

  def counter(name: String): Double = counters.getOrElse(name, 0.0)

  /** Every span as (name, start ms, duration ms, parent index or -1). */
  def spanRecords: Seq[Seq[Any]] = spans.toSeq.map { s =>
    Seq(s.name, s.startNs / 1e6, (s.endNs - s.startNs) / 1e6, s.parent)
  }

  def clear(): Unit = { spans.clear(); stack.clear(); counters.clear() }
}

/** JVM-wide readings: allocation, collector activity, and peak live heap. */
object Jvm {
  val MB: Double = 1024.0 * 1024.0

  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  def threadAllocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated by every live thread (driver and local executors). */
  def allAllocated(): Long =
    threads.getThreadAllocatedBytes(threads.getAllThreadIds).iterator.filter(_ > 0).sum

  def gcCount(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionCount.max(0L)).sum

  def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  def heapUsed(): Long = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed

  /** Peak heap in use right after a collection: the largest live set the
    * collector saw. Eden fill level is left out, since it reflects the
    * collector's sizing rather than what the program holds.
    */
  object PeakLive {
    @volatile private var peak = 0L

    private val listener = new javax.management.NotificationListener {
      override def handleNotification(n: javax.management.Notification, hb: Any): Unit = {
        import com.sun.management.GarbageCollectionNotificationInfo
        if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
          val info = GarbageCollectionNotificationInfo.from(
            n.getUserData.asInstanceOf[javax.management.openmbean.CompositeData])
          val after = info.getGcInfo.getMemoryUsageAfterGc.asScala.valuesIterator.map(_.getUsed).sum
          synchronized { if (after > peak) peak = after }
        }
      }
    }

    def install(): Unit =
      ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
        case e: javax.management.NotificationEmitter => e.addNotificationListener(listener, null, null)
        case _ => ()
      }

    def reset(): Unit = synchronized { peak = 0L }

    /** Peak live heap since `reset` (MB); the current heap if no
      * collection ran in between.
      */
    def mb(): Double = {
      val p = synchronized(peak)
      (if (p > 0) p else heapUsed()) / MB
    }
  }
}

/** Order statistics over latency samples. */
object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs.toArray, 0.5)

  /** Linear-interpolated quantile, q in [0, 1]. */
  def quantile(xs: Array[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}
