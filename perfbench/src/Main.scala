package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The benchmark: one seeded workload per run, in one JVM with Spark
  * local[N], N = min(cores, 4).
  *
  *   perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --state-dir <dir>
  *
  * Untraced (--trace 0), it measures the end-to-end metrics. Traced
  * (--trace 1), it alternates untraced and traced passes and reports the
  * per-layer metrics from the traced ones, the workload-level numbers from
  * the untraced ones, and the difference as tracing overhead. The last line
  * of standard output is the JSON result; the full record goes to
  * <state-dir>/records/. Exit status is 1 when any operation failed.
  */
object Main {
  /** The end-to-end metrics every workload reports, with their units. */
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "pass_s" -> "s", "lp_s" -> "s",
    "lp_size" -> "count", "final_size" -> "count", "alloc_mb" -> "MB")

  /** Workload-level numbers that only some workloads have; printed by every
    * run, and reported among the per-layer metrics of traced runs.
    */
  val workloadLevel: Seq[(String, String)] = Seq(
    "hg_s" -> "s", "gc_s" -> "s", "opt_s" -> "s", "index_build_s" -> "s",
    "update_p50_us" -> "us", "update_p99_us" -> "us", "updates_per_s" -> "1/s",
    "hg_size" -> "count", "gc_size" -> "count", "opt_size" -> "count", "dyn_size" -> "count",
    "heap_peak_mb" -> "MB")

  /** Per-layer metrics; a layer a workload bypasses reports 0. */
  val perLayer: Seq[(String, String)] = Seq(
    "GraphGen.community.s" -> "s", "GraphGen.erdosRenyiExactM.s" -> "s",
    "CsrGraph.fromUndirectedEdges.s" -> "s",
    "CsrGraph.orient.s" -> "s", "CsrGraph.orient.calls" -> "count",
    "Orderings.byScore.s" -> "s", "Orderings.byDegree.s" -> "s",
    "NodeScores.compute.s" -> "s", "NodeScores.compute.calls" -> "count", "NodeScores.tau" -> "count",
    "spark.jobs" -> "count", "spark.tasks" -> "count", "spark.job_s" -> "s",
    "SparkCliqueLister.listAll.s" -> "s", "SparkCliqueLister.listAll.cliques" -> "count",
    "CliqueScoreGreedy.select.s" -> "s", "CliqueScoreGreedy.select.alloc_mb" -> "MB",
    "Lightweight.run.s" -> "s", "Lightweight.run.alloc_mb" -> "MB",
    "Lightweight.find_min_calls" -> "count", "Lightweight.heap_pushes" -> "count",
    "Lightweight.stale_pops" -> "count", "Lightweight.pops" -> "count",
    "Lightweight.stale_pop_ratio" -> "ratio",
    "BasicFramework.run.s" -> "s", "BasicFramework.run.calls" -> "count",
    "ExactSolver.run.s" -> "s", "ExactSolver.cliques" -> "count", "ExactSolver.conflict_edges" -> "count",
    "ExactSolver.optimal" -> "count", "ExactSolver.attempted" -> "count",
    "ExactSolver.over_time_budget" -> "count", "ExactSolver.over_memory_budget" -> "count",
    "MemoryModel.lp_mb" -> "MB", "MemoryModel.gc_mb" -> "MB",
    "DynamicGraph.fromCsr.s" -> "s",
    "DynamicPacking.initialize.s" -> "s",
    "DynamicPacking.index_size_before" -> "count", "DynamicPacking.index_size_after" -> "count",
    "DynamicPacking.deleteEdge.p50_us" -> "us", "DynamicPacking.deleteEdge.p99_us" -> "us",
    "DynamicPacking.deleteEdge.calls" -> "count",
    "DynamicPacking.insertEdge.p50_us" -> "us", "DynamicPacking.insertEdge.p99_us" -> "us",
    "DynamicPacking.insertEdge.calls" -> "count",
    "DynamicPacking.swaps" -> "count", "DynamicPacking.hosts_at_cap" -> "count",
    "DynamicPacking.largest_host" -> "count",
    "jvm.gc_s" -> "s", "jvm.gc_count" -> "count", "jvm.alloc_mb" -> "MB",
    "trace.overhead_pct" -> "%") ++ workloadLevel

  /** Spans whose totals are reported per set-up repetition. */
  private val setupSpans = Seq("GraphGen.community", "GraphGen.erdosRenyiExactM",
    "CsrGraph.fromUndirectedEdges", "DynamicGraph.fromCsr")

  /** Spans whose totals are reported per traced pass. */
  private val passSpans = Seq("CsrGraph.orient", "Orderings.byScore", "Orderings.byDegree",
    "NodeScores.compute", "SparkCliqueLister.listAll", "CliqueScoreGreedy.select",
    "Lightweight.run", "BasicFramework.run", "ExactSolver.run", "DynamicPacking.initialize")

  val setupReps = 3

  def main(args: Array[String]): Unit = {
    val jvmBootS = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    // An uncaught error must still end the JVM, whose Spark threads would
    // otherwise keep it alive; it prints no result.
    val status =
      try run(jvmBootS, parse(args))
      catch { case e: Throwable => e.printStackTrace(); 1 }
    sys.exit(status)
  }

  /** One run; returns the exit status. */
  private def run(jvmBootS: Double, opts: Opts): Int = {
    val wl = Workloads.byName(opts.workload).getOrElse {
      Console.err.println(s"unknown workload ${opts.workload}; one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }

    val (spark, sparkS) = Workloads.timed(session(opts))
    Jvm.PeakLive.install()
    val r = new Run(opts, spark)
    val t = r.trace

    val warmupS = Workloads.timed(wl.warmup(r))._2
    t.clear()
    // Set-up, repeated; in a traced run its layers are traced too.
    t.on = opts.trace
    val setups = (1 to setupReps).map(_ => Workloads.timed(wl.setup(r)))
    val setupLayer = setupSpans.map(n => s"$n.s" -> t.seconds(n) / setupReps).toMap
    t.on = false
    t.clear()
    val setupS = jvmBootS + sparkS + Stats.median(setups.map(_._2))
    r.samples("setup_s") = setupReps

    val prepareS = Workloads.timed(wl.prepare(r))._2

    // Measured passes, for at least --seconds; a traced run alternates
    // untraced and traced passes and makes at least one of each.
    Jvm.PeakLive.reset()
    val plain = mutable.ArrayBuffer.empty[Pass]
    val traced = mutable.ArrayBuffer.empty[Pass]
    val tracedWindows = mutable.ArrayBuffer.empty[(Long, Long)]
    var jvmGcS, jvmGcN, jvmAllocMb = 0.0
    val deadline = System.nanoTime() + opts.seconds * 1000000000L
    var i = 0
    while (System.nanoTime() < deadline || plain.length < wl.minPasses || (opts.trace && traced.isEmpty)) {
      val tracing = opts.trace && i % 2 == 1
      t.on = tracing
      // Every pass starts from a collected heap, so the collector's pauses
      // fall the same way in each.
      System.gc()
      val (gc0, gcn0, a0, w0) = (Jvm.gcSeconds(), Jvm.gcCount(), Jvm.allAllocated(), System.currentTimeMillis())
      val p = wl.pass(r)
      if (tracing) {
        traced += p
        tracedWindows += ((w0, System.currentTimeMillis()))
        jvmGcS += Jvm.gcSeconds() - gc0
        jvmGcN += Jvm.gcCount() - gcn0
        jvmAllocMb += (Jvm.allAllocated() - a0) / Jvm.MB
      } else {
        p.values("alloc_mb") = (Jvm.allAllocated() - a0) / Jvm.MB
        plain += p
      }
      i += 1
    }
    t.on = false
    val heapPeakMb = Jvm.PeakLive.mb()
    val measureS = (System.nanoTime() - deadline) / 1e9 + opts.seconds
    wl.finish(r)

    // Workload-level numbers: medians over untraced passes and set-ups;
    // latency percentiles over every sample of the untraced passes.
    val values = mutable.LinkedHashMap.empty[String, Double]
    val sources = setups.map(_._1) ++ plain.map(_.values)
    for (k <- sources.flatMap(_.keys).distinct) {
      val xs = sources.flatMap(_.get(k))
      values(k) = Stats.median(xs)
      r.samples(k) = xs.length
    }
    values("setup_s") = setupS
    values("heap_peak_mb") = heapPeakMb
    val updates = plain.flatMap(_.latencies.valuesIterator.flatten).toArray
    if (updates.nonEmpty) {
      values("update_p50_us") = Stats.quantile(updates, 0.5)
      values("update_p99_us") = Stats.quantile(updates, 0.99)
      r.samples("update_p50_us") = updates.length
      r.samples("update_p99_us") = updates.length
    }

    val layer = mutable.LinkedHashMap.empty[String, Double]
    if (opts.trace) {
      val n = traced.length.toDouble
      layer ++= setupLayer
      for (s <- passSpans) layer(s"$s.s") = t.seconds(s) / n
      layer("CsrGraph.orient.calls") = t.calls("CsrGraph.orient") / n
      layer("NodeScores.compute.calls") = t.calls("NodeScores.compute") / n
      layer("BasicFramework.run.calls") = t.calls("BasicFramework.run") / n
      for ((name, _) <- perLayer if !layer.contains(name) && t.counter(name) != 0)
        layer(name) = t.counter(name) / n
      val pops = layer.getOrElse("Lightweight.pops", 0.0)
      layer("Lightweight.stale_pop_ratio") = if (pops > 0) layer.getOrElse("Lightweight.stale_pops", 0.0) / pops else 0
      for (p <- traced; (name, v) <- p.values if name.contains('.')) layer(name) = layer.getOrElse(name, 0.0) + v / n
      for (op <- Seq("DynamicPacking.deleteEdge", "DynamicPacking.insertEdge")) {
        val xs = traced.flatMap(_.latencies.getOrElse(op, Array.empty[Double])).toArray
        if (xs.nonEmpty) {
          layer(s"$op.p50_us") = Stats.quantile(xs, 0.5)
          layer(s"$op.p99_us") = Stats.quantile(xs, 0.99)
          layer(s"$op.calls") = xs.length / n
        }
      }
      val jobs = r.jobs.within(tracedWindows.toSeq)
      layer("spark.jobs") = jobs.length / n
      layer("spark.tasks") = jobs.map(_.tasks).sum / n
      layer("spark.job_s") = jobs.map(j => j.endMs - j.startMs).sum / 1e3 / n
      layer("jvm.gc_s") = jvmGcS / n
      layer("jvm.gc_count") = jvmGcN / n
      layer("jvm.alloc_mb") = jvmAllocMb / n
      val plainPass = Stats.median(plain.map(_.values("pass_s")).toSeq)
      val tracedPass = Stats.median(traced.map(_.values("pass_s")).toSeq)
      layer("trace.overhead_pct") = 100.0 * (tracedPass - plainPass) / plainPass
      r.samples("trace.traced_passes") = traced.length
      for ((name, _) <- workloadLevel) layer(name) = values.getOrElse(name, 0.0)
      for ((name, _) <- perLayer) layer.getOrElseUpdate(name, 0.0)
    }

    checkDeterminism(r)
    val correct = r.failed == 0
    val unit = (endToEnd ++ perLayer).toMap
    val reported: Seq[(String, Double)] =
      if (opts.trace) perLayer.map { case (n, _) => n -> layer(n) }
      else endToEnd.map { case (n, _) => n -> values(n) }

    println(s"[perfbench] workload=${wl.name} seed=${opts.seed} trace=${if (opts.trace) 1 else 0} " +
      s"passes=${plain.length}+${traced.length} attempted=${r.attempted} failed=${r.failed}")
    println(s"[perfbench] why: ${wl.why}")
    println(f"[perfbench] phases: jvm $jvmBootS%.1f s, spark $sparkS%.1f s, warm-up $warmupS%.1f s, set-up ${setups.map(_._2).sum}%.1f s " +
      f"($setupReps reps), prepare $prepareS%.1f s, measured passes $measureS%.1f s")
    for ((n, u) <- endToEnd ++ workloadLevel; v <- values.get(n))
      println(f"[perfbench] $n%-16s ${Json.num(v)}%s $u (n=${r.samples.getOrElse(n, 1L)})")
    if (opts.trace) for ((n, v) <- layer) println(f"[perfbench] layer $n%-36s ${Json.num(v)}%s ${unit(n)}")
    r.failures.take(20).foreach(f => println(s"[perfbench] FAILED $f"))

    writeRecord(r, wl, values, layer, spark)
    println(Json.render(mutable.LinkedHashMap(
      "correct" -> correct,
      "attempted" -> r.attempted,
      "failed" -> r.failed,
      "metrics" -> mutable.LinkedHashMap.from(reported.map { case (n, v) =>
        n -> mutable.LinkedHashMap("value" -> v, "unit" -> unit(n)) }))))
    Console.out.flush()
    spark.stop()
    if (correct) 0 else 1
  }

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, { Console.err.println(s"missing --$k"); sys.exit(2) })
    Opts(workload = need("workload"), seed = m.getOrElse("seed", "0").toLong,
      seconds = m.getOrElse("seconds", "10").toInt, trace = m.getOrElse("trace", "0") == "1",
      stateDir = m.getOrElse("state-dir", ".bench_build"))
  }

  private def session(opts: Opts): SparkSession = {
    val cores = math.min(Runtime.getRuntime.availableProcessors, 4)
    val dir = Paths.get(opts.stateDir).toAbsolutePath
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", dir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", dir.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** S digests of a run must equal those of every earlier run of the same
    * workload and seed on the same build.
    */
  private def checkDeterminism(r: Run): Unit = {
    val file = Paths.get(r.opts.stateDir, "digests", s"${r.opts.workload}-seed${r.opts.seed}.txt")
    val stamp = sys.props.getOrElse("perfbench.stamp", "unknown")
    val now = (s"stamp $stamp" +: r.digests.map { case (k, d) => s"$k $d" }.toSeq).mkString("\n")
    val prev = if (Files.exists(file)) Some(new String(Files.readAllBytes(file), UTF_8)) else None
    r.op("determinism") {
      prev.filter(_.startsWith(s"stamp $stamp\n")).foreach { p =>
        val before = p.linesIterator.drop(1).map(_.split(' ')).collect { case Array(k, d) => k -> d }.toMap
        for ((k, d) <- r.digests; b <- before.get(k))
          r.check(b == d, s"$k: S digest $d differs from an earlier run's $b")
      }
    }
    if (!prev.exists(_.startsWith(s"stamp $stamp\n"))) write(file, now)
  }

  private def writeRecord(r: Run, wl: Workload, values: collection.Map[String, Double],
                          layer: collection.Map[String, Double], spark: SparkSession): Unit = {
    val rt = ManagementFactory.getRuntimeMXBean
    val rec = mutable.LinkedHashMap[String, Any](
      "workload" -> wl.name,
      "why" -> wl.why,
      "seed" -> r.opts.seed,
      "seconds" -> r.opts.seconds,
      "trace" -> r.opts.trace,
      "correct" -> (r.failed == 0),
      "attempted" -> r.attempted,
      "failed" -> r.failed,
      "failures" -> r.failures.toSeq,
      "env" -> mutable.LinkedHashMap[String, Any](
        "nproc" -> Runtime.getRuntime.availableProcessors,
        "spark_master" -> spark.sparkContext.master,
        "spark_default_parallelism" -> spark.sparkContext.defaultParallelism,
        "max_heap_mb" -> Runtime.getRuntime.maxMemory / Jvm.MB,
        "jvm_args" -> rt.getInputArguments.asScala.toSeq,
        "java_version" -> sys.props.getOrElse("java.version", "?"),
        "git_commit" -> sys.props.getOrElse("perfbench.commit", "unknown"),
        "source_stamp" -> sys.props.getOrElse("perfbench.stamp", "unknown")),
      "samples" -> r.samples,
      "metrics" -> values,
      "per_layer" -> layer,
      "digests" -> r.digests,
      "spans" -> r.trace.spanRecords)
    write(Paths.get(r.opts.stateDir, "records",
      s"${wl.name}-seed${r.opts.seed}-trace${if (r.opts.trace) 1 else 0}.json"), Json.render(rec) + "\n")
  }

  private def write(p: Path, s: String): Unit = {
    Files.createDirectories(p.getParent)
    Files.write(p, s.getBytes(UTF_8))
  }
}
