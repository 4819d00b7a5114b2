package repro.core

import java.util.concurrent.{ExecutionException, Future, LinkedBlockingQueue, ThreadPoolExecutor, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

/** A source-parallel loop on driver threads, for driver phases too short
  * to pay for a Spark job (Algorithm 3's HeapInit).
  *
  * The caller is worker 0; the other workers run on a shared pool of
  * daemon threads that outlive the call, so their allocation stays
  * visible to per-thread JVM counters.
  */
private[core] object DriverParallel {

  /** Sources a worker claims at a time. */
  val Block = 64

  private val pool = new ThreadPoolExecutor(1, 1, 0L, TimeUnit.MILLISECONDS,
    new LinkedBlockingQueue[Runnable], (r: Runnable) => {
      val t = new Thread(r, "driver-parallel")
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

  /** Call `f(u)` once for every u in `0 until n`, on `workers` workers.
    * Each worker builds its own `f` with `newWorker` and claims blocks of
    * sources from a shared counter. If any worker throws, the others stop
    * claiming, and the first failure is rethrown here once all have
    * stopped.
    */
  def forEachSource(n: Int, workers: Int)(newWorker: () => Int => Unit): Unit = {
    require(workers >= 1, s"need at least one worker, got $workers")
    val next = new AtomicInteger(0)
    val work: Runnable = () =>
      try {
        val f = newWorker()
        var from = next.getAndAdd(Block)
        while (from < n) {
          val until = if (n - from > Block) from + Block else n
          var u = from
          while (u < until) { f(u); u += 1 }
          from = next.getAndAdd(Block)
        }
      } catch { case t: Throwable => next.set(n); throw t }
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
