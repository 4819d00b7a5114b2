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
    */
  def evalSweep(spark: SparkSession,
                specs: Seq[Datasets.Spec] = Datasets.standins): Seq[EvalRow] =
    for (spec <- specs; k <- BenchConfig.ks) yield {
      val g = spec.csr
      Runner.evaluate(spark, spec.name, g, k, runOpt = true)
    }

  def renderTableII(rows: Seq[EvalRow]): String = {
    val byName = rows.groupBy(_.dataset)
    val names = rows.map(_.dataset).distinct
    val header = Seq("Name") ++ BenchConfig.ks.flatMap(k =>
      Seq(s"OPT(k=$k)", s"HG(k=$k)", s"GC Δ(k=$k)", s"LP Δ(k=$k)"))
    val body = names.map { name =>
      val cells = BenchConfig.ks.flatMap { k =>
        val r = byName(name).find(_.k == k).get
        def delta(c: AlgoCell) = if (c.status == "ok") (c.size - r.hg.size).toString else c.status
        Seq(r.opt.sizeStr, r.hg.sizeStr, delta(r.gc), delta(r.lp))
      }
      Seq(name) ++ cells
    }
    Runner.formatTable(header, body) + "\n" + Runner.optOutcomes(rows.map(_.opt.status))
  }

  def renderTableIII(rows: Seq[EvalRow]): String = {
    val byName = rows.groupBy(_.dataset)
    val names = rows.map(_.dataset).distinct
    val header = Seq("Name") ++ BenchConfig.ks.flatMap(k =>
      Seq(s"OPT(k=$k)", s"HG(k=$k)", s"GC(k=$k)", s"LP(k=$k)"))
    val body = names.map { name =>
      val cells = BenchConfig.ks.flatMap { k =>
        val r = byName(name).find(_.k == k).get
        Seq(r.opt.memStr, r.hg.memStr, r.gc.memStr, r.lp.memStr)
      }
      Seq(name) ++ cells
    }
    Runner.formatTable(header, body)
  }

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
  // Table IV — LP vs exact OPT on small graphs
  // ------------------------------------------------------------------

  final case class SmallRow(name: String, n: Int, m: Long, k: Int,
                            lp: Int, opt: AlgoCell, errorRatio: String)

  def tableIV(spark: SparkSession,
              specs: Seq[Datasets.Spec] = Datasets.small): Seq[SmallRow] =
    for (spec <- specs; k <- BenchConfig.ks) yield {
      val g = spec.csr
      val lp = lpOn(spark, g, k)
      Validation.ensureValid(g, lp, s"${spec.name} k=$k LP")
      val opt = Runner.optCell(g, k, s"${spec.name} k=$k")
      val er =
        if (opt.status != "ok") "-"
        else if (opt.size == 0) "0%"
        else f"${(opt.size - lp.size) * 100.0 / opt.size}%.2f%%"
      SmallRow(spec.name, g.n, g.undirectedEdgeCount, k, lp.size, opt, er)
    }

  def renderTableIV(rows: Seq[SmallRow]): String =
    Runner.formatTable(
      Seq("Dataset", "n", "m", "k", "LP", "OPT", "ER"),
      rows.map(r => Seq(r.name, r.n.toString, r.m.toString, r.k.toString,
                        r.lp.toString, r.opt.sizeStr, r.errorRatio))) +
      "\n" + Runner.optOutcomes(rows.map(_.opt.status))

  // ------------------------------------------------------------------
  // Tables V & VI — Watts–Strogatz synthetic sweep
  // ------------------------------------------------------------------

  def wsSweep(spark: SparkSession): Seq[EvalRow] =
    for (deg <- BenchConfig.wsDegrees; k <- BenchConfig.ks) yield {
      val g = GraphGen.wattsStrogatz(BenchConfig.wsNodes, deg, BenchConfig.wsBeta,
        seed = 4242L + deg).toCsr
      Runner.evaluate(spark, s"deg=$deg", g, k, runOpt = false, runL = false)
    }

  def renderTableV(rows: Seq[EvalRow]): String =
    Runner.formatTable(
      Seq("Degree") ++ BenchConfig.ks.flatMap(k =>
        Seq(s"HG ms(k=$k)", s"GC ms(k=$k)", s"LP ms(k=$k)")),
      rows.groupBy(_.dataset).toSeq
        .sortBy(_._1.stripPrefix("deg=").toInt)
        .map { case (name, rs) =>
          Seq(name) ++ BenchConfig.ks.flatMap { k =>
            val r = rs.find(_.k == k).get
            Seq(r.hg.timeStr, r.gc.timeStr, r.lp.timeStr)
          }
        })

  def renderTableVI(rows: Seq[EvalRow]): String =
    Runner.formatTable(
      Seq("Degree") ++ BenchConfig.ks.flatMap(k =>
        Seq(s"HG(k=$k)", s"GC Δ(k=$k)", s"LP Δ(k=$k)")),
      rows.groupBy(_.dataset).toSeq
        .sortBy(_._1.stripPrefix("deg=").toInt)
        .map { case (name, rs) =>
          Seq(name) ++ BenchConfig.ks.flatMap { k =>
            val r = rs.find(_.k == k).get
            def delta(c: AlgoCell) = if (c.status == "ok") (c.size - r.hg.size).toString else c.status
            Seq(r.hg.sizeStr, delta(r.gc), delta(r.lp))
          }
        })

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

  def renderTableVII(rows: Seq[DynamicRow]): String = {
    val names = rows.map(_.name).distinct
    Runner.formatTable(
      Seq("Dataset") ++ BenchConfig.ks.map(k => s"idx ms(k=$k)") ++
        BenchConfig.ks.map(k => s"idx size(k=$k)"),
      names.map { n =>
        val rs = rows.filter(_.name == n)
        Seq(n) ++ BenchConfig.ks.map(k => f"${rs.find(_.k == k).get.indexMs}%.1f") ++
          BenchConfig.ks.map(k => rs.find(_.k == k).get.indexSize.toString)
      })
  }

  def renderTableVIII(rows: Seq[DynamicRow]): String = {
    val names = rows.map(_.name).distinct
    Runner.formatTable(
      Seq("Dataset") ++ BenchConfig.ks.map(k => s"del Δ(k=$k)") ++
        BenchConfig.ks.map(k => s"ins Δ(k=$k)") ++ BenchConfig.ks.map(k => s"mix Δ(k=$k)"),
      names.map { n =>
        val rs = rows.filter(_.name == n)
        def cell(k: Int, f: DynamicRow => Int) = f(rs.find(_.k == k).get).toString
        Seq(n) ++ BenchConfig.ks.map(cell(_, _.afterDelDelta)) ++
          BenchConfig.ks.map(cell(_, _.afterInsDelta)) ++
          BenchConfig.ks.map(cell(_, _.afterMixDelta))
      })
  }

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
