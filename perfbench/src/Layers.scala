package perfbench

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchConfig, MemoryModel, Tables}
import repro.core._
import repro.dynamic.{DynamicGraph, DynamicPacking}

/** Every call the benchmark makes into the program, in one place.
  *
  * Untraced, each algorithm runs through the entry point the evaluation
  * tables use (`BasicFramework.run(g, k)`, `Tables.lpOn`, and the call
  * sequence of `Runner.evaluate` for GC and OPT), so internals can be
  * reorganised without touching the end-to-end measurement. Traced, the
  * same work is issued one public layer function at a time, each inside
  * a span, and the counters those functions expose are recorded.
  */
final class Layers(spark: SparkSession, t: Trace) {

  def hg(g: CsrGraph, k: Int): DisjointResult =
    if (!t.on) BasicFramework.run(g, k)
    else {
      val rank = t.span("Orderings.byDegree")(Orderings.byDegree(g))
      t.span("BasicFramework.run")(BasicFramework.run(g, k, rank))
    }

  def lp(g: CsrGraph, k: Int): DisjointResult =
    if (!t.on) Tables.lpOn(spark, g, k)
    else {
      val sn = nodeScores(orient(g, Orderings.byId(g.n)), k)
      val (res, st) = t.allocSpan("Lightweight.run")(Lightweight.run(g, k, sn, PruneMode.Paper))
      t.add("Lightweight.find_min_calls", st.findMinCalls.toDouble)
      t.add("Lightweight.heap_pushes", st.heapPushes.toDouble)
      t.add("Lightweight.stale_pops", st.stalePops.toDouble)
      // every pop either selects a clique or is stale
      t.add("Lightweight.pops", (st.stalePops + res.size).toDouble)
      t.add("MemoryModel.lp_mb", MemoryModel.toMB(MemoryModel.lpBytes(g, k)))
      res
    }

  /** GC as `Runner.evaluate` runs it; node scores are part of its time. */
  def gc(g: CsrGraph, k: Int): DisjointResult = {
    val sn = nodeScores(orient(g, Orderings.byId(g.n)), k)
    val rank = t.span("Orderings.byScore")(Orderings.byScore(sn))
    val dag = orient(g, rank)
    val cliques = t.span("SparkCliqueLister.listAll")(SparkCliqueLister.listAll(spark, dag, k))
    t.add("SparkCliqueLister.listAll.cliques", cliques.length.toDouble)
    val res = t.allocSpan("CliqueScoreGreedy.select")(CliqueScoreGreedy.select(g.n, k, cliques, sn))
    t.add("MemoryModel.gc_mb",
      MemoryModel.toMB(MemoryModel.gcBytes(g, k, NodeScores.totalCliques(sn, k))))
    res
  }

  /** OPT with the evaluation's budgets. Budget outcomes are counted, not
    * turned into table strings.
    */
  def opt(g: CsrGraph, k: Int): Either[String, ExactSolver.OptResult] = {
    val r = t.span("ExactSolver.run")(ExactSolver.run(g, k,
      timeBudgetMs = BenchConfig.optTimeBudgetMs,
      maxCliques = BenchConfig.optMaxCliques,
      maxConflictEdges = BenchConfig.optMaxConflictEdges))
    t.add("ExactSolver.attempted", 1)
    r match {
      case Left(_) => t.add("ExactSolver.over_memory_budget", 1)
      case Right(o) =>
        t.add("ExactSolver.cliques", o.cliqueCount.toDouble)
        t.add("ExactSolver.conflict_edges", o.conflictEdges.toDouble)
        if (o.optimal) t.add("ExactSolver.optimal", 1) else t.add("ExactSolver.over_time_budget", 1)
    }
    r
  }

  def orient(g: CsrGraph, rank: Array[Int]): CsrGraph =
    t.span("CsrGraph.orient")(CsrGraph.orient(g, rank))

  def nodeScores(dag: CsrGraph, k: Int): Array[Long] = {
    val sn = t.span("NodeScores.compute")(NodeScores.compute(spark, dag, k))
    t.add("NodeScores.tau", NodeScores.totalCliques(sn, k).toDouble)
    sn
  }

  def dynamicGraph(g: CsrGraph): DynamicGraph =
    t.span("DynamicGraph.fromCsr")(DynamicGraph.fromCsr(g))

  /** A packing of `s` over `dg` with its candidate index built. */
  def packing(dg: DynamicGraph, k: Int, s: DisjointResult): DynamicPacking = {
    val dp = new DynamicPacking(dg, k)
    t.span("DynamicPacking.initialize")(dp.initialize(s))
    dp
  }
}
