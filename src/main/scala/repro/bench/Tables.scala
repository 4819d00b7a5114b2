package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.dynamic.{DynamicGraph, DynamicPacking}
import repro.graphdata.{Datasets, GraphGen}
import scala.util.Random

/** Computations behind each evaluation table. Bench suites (bench/) and
  * spark-submit entrypoints (jobs/) both call into here.
  */
object Tables {

  /** LP (the paper's headline method) with Spark-computed node scores. */
  def lpOn(spark: SparkSession, g: CsrGraph, k: Int): DisjointResult = {
    val sn = NodeScores.compute(spark, CsrGraph.orient(g, Orderings.byId(g.n)), k)
    Lightweight.run(g, k, sn, PruneMode.Paper)._1
  }

  // ------------------------------------------------------------------
  // Table I — dataset statistics
  // ------------------------------------------------------------------

  final case class StatsRow(name: String, n: Int, m: Long, counts: Seq[Long])

  def tableI(spark: SparkSession, specs: Seq[Datasets.Spec] = Datasets.standins): Seq[StatsRow] =
    specs.map { spec =>
      val g = spec.csr
      val dag = CsrGraph.orient(g, Orderings.byId(g.n))
      val counts = BenchConfig.ks.map(k => NodeScores.totalCliques(NodeScores.compute(spark, dag, k), k))
      StatsRow(spec.name, g.n, g.undirectedEdgeCount, counts)
    }

  def renderTableI(rows: Seq[StatsRow]): String =
    Runner.formatTable(
      Seq("Name", "n", "m") ++ BenchConfig.ks.map(k => s"k=$k"),
      rows.map(r => Seq(r.name, r.n.toString, r.m.toString) ++ r.counts.map(_.toString)))

  // ------------------------------------------------------------------
  // Tables II & III (+ Fig. 6 runtimes) — quality / memory / time
  // ------------------------------------------------------------------

  /** Full evaluation sweep: every dataset × k, all five algorithms. OPT
    * runs everywhere; its own clique and clique-graph gates report OOM.
    * Table IV is this sweep on `Datasets.small`.
    */
  def evalSweep(spark: SparkSession,
                specs: Seq[Datasets.Spec] = Datasets.standins): Seq[EvalRow] =
    for (spec <- specs; k <- BenchConfig.ks) yield {
      val g = spec.csr
      Runner.evaluate(spark, spec.name, g, k, runOptAndL = true)
    }

  /** One table row per name, in the order the rows first give it, and one
    * column `heading(k=k)` per (heading, cell) pair and k: k-major (every
    * heading at k=3, then at k=4, ...) or, without `kFirst`, heading-major.
    */
  private def grid[R](first: String, rows: Seq[R], name: R => String, k: R => Int,
                      cols: Seq[(String, R => String)], kFirst: Boolean = true): String = {
    val at = rows.map(r => (name(r), k(r)) -> r).toMap
    val order =
      if (kFirst) for (k <- BenchConfig.ks; c <- cols) yield (k, c)
      else for (c <- cols; k <- BenchConfig.ks) yield (k, c)
    Runner.formatTable(
      first +: order.map { case (k, (heading, _)) => s"$heading(k=$k)" },
      rows.map(name).distinct.map(n => n +: order.map { case (k, (_, cell)) => cell(at((n, k))) }))
  }

  /** An algorithm's |S| minus HG's in the same cell, or its status. */
  private def delta(r: EvalRow, c: AlgoCell): String =
    if (c.status == "ok") (c.size - r.hg.size).toString else c.status

  def renderTableII(rows: Seq[EvalRow]): String =
    grid[EvalRow]("Name", rows, _.dataset, _.k, Seq("OPT" -> (_.opt.sizeStr), "HG" -> (_.hg.sizeStr),
      "GC Δ" -> (r => delta(r, r.gc)), "LP Δ" -> (r => delta(r, r.lp)))) +
      "\n" + Runner.optOutcomes(rows.map(_.opt.status))

  def renderTableIII(rows: Seq[EvalRow]): String =
    grid[EvalRow]("Name", rows, _.dataset, _.k, Seq("OPT" -> (_.opt.memStr), "HG" -> (_.hg.memStr),
      "GC" -> (_.gc.memStr), "LP" -> (_.lp.memStr)))

  /** Fig. 6 companion: running time per algorithm (ms), and for L and LP
    * the FindMin calls and the share of heap pops that were stale.
    */
  def renderRuntimes(rows: Seq[EvalRow]): String =
    Runner.formatTable(
      Seq("Name", "k", "tau", "HG ms", "GC ms", "L ms", "LP ms",
          "L FindMin", "L stale", "LP FindMin", "LP stale"),
      rows.map(r => Seq(r.dataset, r.k.toString, r.tau.toString,
                        r.hg.timeStr, r.gc.timeStr, r.l.timeStr, r.lp.timeStr,
                        r.l.findMinStr, r.l.staleRatioStr, r.lp.findMinStr, r.lp.staleRatioStr)))

  // ------------------------------------------------------------------
  // Table IV — LP vs exact OPT on small graphs (`evalSweep` on
  // `Datasets.small`), with the error ratio (OPT − LP) / OPT
  // ------------------------------------------------------------------

  def renderTableIV(rows: Seq[EvalRow]): String =
    Runner.formatTable(
      Seq("Dataset", "n", "m", "k", "LP", "OPT", "ER"),
      rows.map { r =>
        val er =
          if (r.opt.status != "ok") "-"
          else if (r.opt.size == 0) "0%"
          else f"${(r.opt.size - r.lp.size) * 100.0 / r.opt.size}%.2f%%"
        Seq(r.dataset, r.n.toString, r.m.toString, r.k.toString, r.lp.sizeStr, r.opt.sizeStr, er)
      }) + "\n" + Runner.optOutcomes(rows.map(_.opt.status))

  // ------------------------------------------------------------------
  // Tables V & VI — Watts–Strogatz synthetic sweep
  // ------------------------------------------------------------------

  def wsSweep(spark: SparkSession): Seq[EvalRow] =
    for (deg <- BenchConfig.wsDegrees; k <- BenchConfig.ks) yield {
      val g = GraphGen.wattsStrogatz(BenchConfig.wsNodes, deg, BenchConfig.wsBeta,
        seed = 4242L + deg).toCsr
      Runner.evaluate(spark, s"deg=$deg", g, k, runOptAndL = false)
    }

  def renderTableV(rows: Seq[EvalRow]): String =
    grid[EvalRow]("Degree", rows, _.dataset, _.k, Seq("HG ms" -> (_.hg.timeStr),
      "GC ms" -> (_.gc.timeStr), "LP ms" -> (_.lp.timeStr)))

  def renderTableVI(rows: Seq[EvalRow]): String =
    grid[EvalRow]("Degree", rows, _.dataset, _.k, Seq("HG" -> (_.hg.sizeStr),
      "GC Δ" -> (r => delta(r, r.gc)), "LP Δ" -> (r => delta(r, r.lp))))

  // ------------------------------------------------------------------
  // Tables VII & VIII (+ Fig. 7) — dynamic maintenance
  // ------------------------------------------------------------------

  /** Per-operation times of one update stream (ns): mean, p50, p99. */
  final case class OpTimes(meanNs: Long, p50Ns: Long, p99Ns: Long)

  object OpTimes {
    /** Run `op` on each element of `xs`, timing each call; the
      * percentiles are nearest-rank.
      */
    def time[A](xs: Seq[A])(op: A => Unit): OpTimes = {
      val ns = xs.iterator.map { x => val t = System.nanoTime(); op(x); System.nanoTime() - t }.toArray.sorted
      def pct(p: Int) = ns((ns.length * p + 99) / 100 - 1)
      if (ns.isEmpty) OpTimes(0, 0, 0) else OpTimes(ns.sum / ns.length, pct(50), pct(99))
    }
  }

  final case class DynamicRow(name: String, k: Int,
                              indexMs: Double, indexSize: Long,
                              del: OpTimes, ins: OpTimes, mix: OpTimes,
                              afterDelDelta: Int, afterInsDelta: Int, afterMixDelta: Int,
                              swapCount: Long)

  /** Every stand-in × k through `dynamicEval` (Tables VII, VIII, Fig. 7). */
  def dynamicSweep(spark: SparkSession): Seq[DynamicRow] =
    for (spec <- Datasets.standins; k <- BenchConfig.ks) yield dynamicEval(spark, spec, k)

  /** Run the three update workloads of §VI-E on one dataset and k.
    *
    * U is `BenchConfig.updatesPerWorkload`, at most a quarter of the edges.
    * Deletion: remove U random edges; compare |S| to scratch LP on the
    * shrunk graph. Insertion: re-add them; compare to scratch LP on the
    * restored graph. Mixed: pre-delete U other edges to form G', then
    * apply the 2U interleaved updates; compare to scratch on the result.
    */
  def dynamicEval(spark: SparkSession, spec: Datasets.Spec, k: Int): DynamicRow = {
    val g = spec.csr
    val rnd = new Random(31337L + spec.name.hashCode + k)

    // canonical edge list for sampling
    val allEdges = {
      val buf = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
      var u = 0
      while (u < g.n) { g.foreachNeighbor(u)(v => if (u < v) buf += ((u, v))); u += 1 }
      buf.toArray
    }
    val u1 = math.min(BenchConfig.updatesPerWorkload, allEdges.length / 4)
    val shuffled = rnd.shuffle(allEdges.toVector)
    val delEdges = shuffled.take(u1)
    val mixDelPool = shuffled.slice(u1, 2 * u1) // pre-deleted, re-inserted in mixed
    val mixDelOther = shuffled.slice(2 * u1, 3 * u1) // deleted during mixed

    val initial = lpOn(spark, g, k)

    // --- index build (Table VII) on the intact graph
    val dp = new DynamicPacking(DynamicGraph.fromCsr(g), k)
    val indexNs = dp.initialize(initial)
    val indexSize = dp.indexSize

    // --- deletion workload
    val del = OpTimes.time(delEdges) { case (u, v) => dp.deleteEdge(u, v) }
    val afterDel = dp.size
    val gDel = dp.g.toCsr
    Validation.ensureValid(gDel, dp.result, s"${spec.name} k=$k dynamic after deletions")
    val scratchDel = lpOn(spark, gDel, k).size

    // --- insertion workload (restores the original graph)
    val ins = OpTimes.time(delEdges) { case (u, v) => dp.insertEdge(u, v) }
    val afterIns = dp.size
    Validation.ensureValid(g, dp.result, s"${spec.name} k=$k dynamic after insertions")
    val scratchIns = initial.size // graph is back to the original

    // --- mixed workload on G' = G minus mixDelPool
    val gPrime = {
      val dg = DynamicGraph.fromCsr(g)
      mixDelPool.foreach { case (u, v) => dg.removeEdge(u, v) }
      dg
    }
    val dp2 = new DynamicPacking(gPrime, k)
    dp2.initialize(lpOn(spark, gPrime.toCsr, k))
    val ops: Seq[(Boolean, (Int, Int))] =
      rnd.shuffle(mixDelPool.map(e => (true, e)) ++ mixDelOther.map(e => (false, e)))
    val mix = OpTimes.time(ops) { case (isIns, (u, v)) => if (isIns) dp2.insertEdge(u, v) else dp2.deleteEdge(u, v) }
    val afterMix = dp2.size
    val gMix = dp2.g.toCsr
    Validation.ensureValid(gMix, dp2.result, s"${spec.name} k=$k dynamic after mixed updates")
    val scratchMix = lpOn(spark, gMix, k).size

    DynamicRow(spec.name, k,
      indexMs = indexNs / 1e6,
      indexSize = indexSize,
      del = del, ins = ins, mix = mix,
      afterDelDelta = afterDel - scratchDel,
      afterInsDelta = afterIns - scratchIns,
      afterMixDelta = afterMix - scratchMix,
      swapCount = dp.swapCount + dp2.swapCount)
  }

  def renderTableVII(rows: Seq[DynamicRow]): String =
    grid[DynamicRow]("Dataset", rows, _.name, _.k, Seq(
      "idx ms" -> (r => f"${r.indexMs}%.1f"), "idx size" -> (_.indexSize.toString)), kFirst = false)

  def renderTableVIII(rows: Seq[DynamicRow]): String =
    grid[DynamicRow]("Dataset", rows, _.name, _.k, Seq(
      "del Δ" -> (_.afterDelDelta.toString), "ins Δ" -> (_.afterInsDelta.toString),
      "mix Δ" -> (_.afterMixDelta.toString)), kFirst = false)

  /** Fig. 7 companion: update time per operation (ns): mean, p50, p99,
    * and the swaps TrySwap made over the three streams.
    */
  def renderUpdateTimes(rows: Seq[DynamicRow]): String =
    Runner.formatTable(
      Seq("Dataset", "k") ++ Seq("del", "ins", "mix").flatMap(w =>
        Seq(s"$w ns/op", s"$w p50", s"$w p99")) :+ "swaps",
      rows.map(r => Seq(r.name, r.k.toString) ++ Seq(r.del, r.ins, r.mix).flatMap(t =>
        Seq(t.meanNs, t.p50Ns, t.p99Ns).map(_.toString)) :+ r.swapCount.toString))
}
