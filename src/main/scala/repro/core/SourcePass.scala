package repro.core

import java.util.concurrent.{ExecutionException, Future, LinkedBlockingQueue, ThreadPoolExecutor, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

import scala.reflect.ClassTag

/** The one source-parallel primitive: the paper's "for each node u in
  * parallel" (Algorithm 3, lines 2 and 6) as a kClist-style pass over the
  * source nodes of a DAG. The sources are dealt out to parts, and a part
  * function turns one part's sources into its output with the worker's
  * `CliqueSearch`. `onSpark` runs the parts as one Spark job; `onDriver`
  * runs them on driver threads, for phases too short to pay for a job.
  */
private[core] object SourcePass {

  /** Sources per dealt block. */
  val Block = 64

  /** Number of parts for a back end with `parallelism` workers. */
  def parts(parallelism: Int): Int = math.max(4 * parallelism, 8)

  /** Some of the sources 0 until n: blocks first, first + step,
    * first + 2·step, … of `Block` sources each, visited in order and
    * unboxed.
    */
  final class Sources private[SourcePass] (n: Int, first: Int, step: Int) {
    def foreach(f: Int => Unit): Unit = {
      var from = first.toLong * Block
      while (from < n) {
        val end = math.min(from + Block, n.toLong).toInt
        var u = from.toInt
        while (u < end) { f(u); u += 1 }
        from += step.toLong * Block
      }
    }
  }

  /** Part p's sources out of n: blocks p, p + parts, p + 2·parts, … A
    * source roots only cliques of nodes ranked below it, so the work per
    * source can grow steeply along the ids; interleaved blocks spread it
    * over the parts, where contiguous ranges leave it all to the last ones.
    */
  def dealt(n: Int, parts: Int, p: Int): Sources = new Sources(n, p, parts)

  /** One Spark job over the DAG's sources: each partition holds one part
    * number, and `part` turns that part's dealt sources, with one
    * `CliqueSearch`, into the partition's one element; `merge` runs the
    * action on the resulting RDD while the DAG is still broadcast.
    */
  def onSpark[T: ClassTag, R](spark: SparkSession, dag: CsrGraph, k: Int)
      (part: (CliqueSearch, Sources) => T)(merge: RDD[T] => R): R = {
    require(k >= 2, s"k must be >= 2, got $k")
    val sc = spark.sparkContext
    val bc = sc.broadcast(dag)
    val ps = parts(sc.defaultParallelism)
    try merge(sc.parallelize(0 until ps, ps).map { p =>
      part(new CliqueSearch(bc.value, k), dealt(bc.value.n, ps, p))
    })
    finally bc.destroy()
  }

  /** Daemon threads shared by every `onDriver` call; they outlive the
    * call, so their allocation stays visible to per-thread JVM counters.
    */
  private val pool = new ThreadPoolExecutor(1, 1, 0L, TimeUnit.MILLISECONDS,
    new LinkedBlockingQueue[Runnable], (r: Runnable) => {
      val t = new Thread(r, "source-pass")
      t.setDaemon(true)
      t
    })

  /** The pool, grown to at least `threads` threads. */
  private def helpers(threads: Int): ThreadPoolExecutor = synchronized {
    if (pool.getMaximumPoolSize < threads) {
      pool.setMaximumPoolSize(threads)
      pool.setCorePoolSize(threads)
    }
    pool
  }

  /** Run `part` on every dealt part of the DAG's sources, on `workers`
    * driver threads: the caller and `workers - 1` pool threads, each with
    * its own `CliqueSearch`, claim whole parts from one counter. If any
    * worker throws, the others stop claiming, and the first failure is
    * rethrown here once all have stopped.
    */
  def onDriver(dag: CsrGraph, k: Int, workers: Int)(part: (CliqueSearch, Sources) => Unit): Unit = {
    require(workers >= 1, s"need at least one worker, got $workers")
    val ps = parts(workers)
    val next = new AtomicInteger(0)
    val work: Runnable = () =>
      try {
        val search = new CliqueSearch(dag, k)
        var p = next.getAndIncrement()
        while (p < ps) {
          part(search, dealt(dag.n, ps, p))
          p = next.getAndIncrement()
        }
      } catch { case t: Throwable => next.set(ps); throw t }
    val others: Seq[Future[_]] = Seq.fill(workers - 1)(helpers(workers - 1).submit(work))
    var failure: Throwable = null
    try work.run() catch { case t: Throwable => failure = t }
    for (o <- others)
      try o.get() catch {
        case e: ExecutionException => if (failure == null) failure = e.getCause
      }
    if (failure != null) throw failure
  }
}
