package perfbench

import java.security.MessageDigest
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import repro.core.{CsrGraph, DisjointResult, Validation}
import scala.collection.mutable
import scala.util.control.NonFatal

final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, stateDir: String)

final class CheckFailed(msg: String) extends RuntimeException(msg)

/** One benchmark run: the operations it attempted and failed, the S
  * digests it saw, and the samples behind each reported number.
  */
final class Run(val opts: Opts, val spark: SparkSession) {
  val trace = new Trace(false)
  val layers = new Layers(spark, trace)
  val jobs = new JobListener
  spark.sparkContext.addSparkListener(jobs)

  var attempted = 0L
  var failed = 0L
  val failures = mutable.ArrayBuffer.empty[String]

  /** Digest of every S, keyed by workload cell; fixed once first seen. */
  val digests = mutable.LinkedHashMap.empty[String, String]

  /** Samples behind each median or percentile in the record. */
  val samples = mutable.LinkedHashMap.empty[String, Long]

  /** Run one operation. An exception, including a failed check, counts it
    * as failed; the run goes on with the next operation.
    */
  def op(label: String)(body: => Unit): Unit = {
    attempted += 1
    try body
    catch {
      case NonFatal(e) =>
        failed += 1
        failures += s"$label: $e"
        Console.err.println(s"[perfbench] FAILED $label: $e")
    }
  }

  def check(ok: Boolean, msg: => String): Unit = if (!ok) throw new CheckFailed(msg)

  /** S must be a valid packing of `g`, and identical to every earlier S
    * computed for the same cell in this run.
    */
  def checkResult(key: String, g: CsrGraph, s: DisjointResult): Unit = {
    val d = Run.digest(s)
    digests.get(key) match {
      case Some(prev) => check(prev == d, s"$key: S differs between passes ($prev vs $d)")
      case None =>
        Validation.validate(g, s).foreach(err => throw new CheckFailed(s"$key: invalid S: $err"))
        digests(key) = d
    }
  }
}

object Run {
  /** SHA-256 over the cliques of S, each sorted, in sorted order. */
  def digest(s: DisjointResult): String = {
    val cliques = s.cliques.map(_.sorted).sortWith { (a, b) =>
      repro.core.CliqueSearch.compareCanon(a, b) < 0
    }
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(4 * (s.k + 1))
    md.update(java.nio.ByteBuffer.allocate(4).putInt(s.k).array())
    cliques.foreach { c =>
      buf.clear()
      c.foreach(buf.putInt)
      md.update(buf.array(), 0, 4 * c.length)
    }
    md.digest().take(16).map(b => f"${b & 0xff}%02x").mkString
  }
}

/** Spark jobs and tasks, with their submission and completion times, so
  * they can be attributed to the pass that issued them.
  */
final class JobListener extends SparkListener {
  final case class Job(startMs: Long, endMs: Long, tasks: Int)
  private val started = mutable.HashMap.empty[Int, (Long, Int)]
  private val done = mutable.ArrayBuffer.empty[Job]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    started(e.jobId) = (e.time, e.stageInfos.map(_.numTasks).sum)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    started.remove(e.jobId).foreach { case (t0, tasks) => done += Job(t0, e.time, tasks) }
  }

  /** Jobs submitted within one of the given wall-clock intervals (ms).
    * Waits briefly for the listener bus to deliver outstanding events.
    */
  def within(intervals: Seq[(Long, Long)]): Seq[Job] = {
    var waited = 0
    while (synchronized(started.nonEmpty) && waited < 50) { Thread.sleep(20); waited += 1 }
    Thread.sleep(100)
    synchronized(done.toList).filter(j => intervals.exists { case (a, b) => j.startMs >= a && j.startMs <= b })
  }
}
