package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._

/** One algorithm's outcome on one (dataset, k) cell; L and LP cells also
  * carry their `Lightweight.Stats`.
  */
final case class AlgoCell(status: String, size: Int = -1, millis: Long = -1,
                          modelMB: Double = -1.0, lpStats: Option[Lightweight.Stats] = None) {
  def sizeStr: String = if (status == "ok") size.toString else status
  def timeStr: String = if (status == "ok") millis.toString else status
  def memStr: String = if (modelMB >= 0) f"$modelMB%.1f" else status
  def findMinStr: String = lpStats.fold(status)(_.findMinCalls.toString)
  /** Stale pops over all pops; every pop is either stale or selects a clique. */
  def staleRatioStr: String = lpStats.fold(status) { st =>
    val pops = st.stalePops + size
    if (pops == 0) "-" else f"${st.stalePops.toDouble / pops}%.2f"
  }
}

/** All algorithms evaluated on one (dataset, k) cell (Tables II/III and
  * the Fig. 6 runtimes).
  */
final case class EvalRow(dataset: String, k: Int, n: Int, m: Long, tau: Long,
                         opt: AlgoCell, hg: AlgoCell, gc: AlgoCell,
                         l: AlgoCell, lp: AlgoCell)

object Runner {

  def timed[T](body: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1000000L)
  }

  /** Evaluate OPT/HG/GC/L/LP on one graph for one k, with the OOM/OOT
    * gates of BenchConfig. Node scores are computed once via Spark and
    * their time charged to GC/L/LP (the paper counts initialisation).
    */
  def evaluate(spark: SparkSession, name: String, g: CsrGraph, k: Int,
               runOpt: Boolean, runL: Boolean = true): EvalRow = {

    // HG — degree ordering, pure driver greedy
    val (hgRes, hgMs) = timed(BasicFramework.run(g, k))
    Validation.ensureValid(g, hgRes, s"$name k=$k HG")
    val hg = AlgoCell("ok", hgRes.size, hgMs, MemoryModel.toMB(MemoryModel.hgBytes(g)))

    // shared node scores (Spark-distributed enumeration pass)
    val dagById = CsrGraph.orient(g, Orderings.byId(g.n))
    val (sn, snMs) = timed(NodeScores.compute(spark, dagById, k))
    val tau = NodeScores.totalCliques(sn, k)

    // GC — materialises all τ cliques; modelled-OOM gate first
    val gcModelMB = MemoryModel.toMB(MemoryModel.gcBytes(g, k, tau))
    val gc =
      if (gcModelMB > BenchConfig.memBudgetMB) AlgoCell("OOM", modelMB = gcModelMB)
      else {
        val (res, ms) = timed {
          val cliques = CliqueSearch.listAll(dagById, k)
          CliqueScoreGreedy.select(g.n, k, cliques, sn)
        }
        Validation.ensureValid(g, res, s"$name k=$k GC")
        AlgoCell("ok", res.size, snMs + ms, gcModelMB)
      }

    val lpModelMB = MemoryModel.toMB(MemoryModel.lpBytes(g, k))

    // L — lightweight without pruning
    val l =
      if (!runL) AlgoCell("skip", modelMB = lpModelMB)
      else {
        val ((res, st), ms) = timed(Lightweight.run(g, k, sn, PruneMode.NoPrune))
        Validation.ensureValid(g, res, s"$name k=$k L")
        AlgoCell("ok", res.size, snMs + ms, lpModelMB, Some(st))
      }

    // LP — lightweight with the paper's score-driven pruning
    val ((lpRes, lpSt), lpMs) = timed(Lightweight.run(g, k, sn, PruneMode.Paper))
    Validation.ensureValid(g, lpRes, s"$name k=$k LP")
    val lp = AlgoCell("ok", lpRes.size, snMs + lpMs, lpModelMB, Some(lpSt))

    val opt = if (runOpt) optCell(g, k, s"$name k=$k") else AlgoCell("skip")

    EvalRow(name, k, g.n, g.undirectedEdgeCount, tau, opt, hg, gc, l, lp)
  }

  /** OPT on one cell with the evaluation's budgets: "OOM" when its
    * clique graph is over budget (`Left`), "OOT" when the time budget
    * expired first, otherwise the optimum with its modelled memory. Every
    * packing OPT returns is validated.
    */
  def optCell(g: CsrGraph, k: Int, label: String): AlgoCell = {
    val (res, ms) = timed(ExactSolver.run(g, k,
      timeBudgetMs = BenchConfig.optTimeBudgetMs,
      maxCliques = BenchConfig.optMaxCliques,
      maxConflictEdges = BenchConfig.optMaxConflictEdges))
    res.foreach(r => Validation.ensureValid(g, r.result, s"$label OPT"))
    res match {
      case Left(_) => AlgoCell("OOM")
      case Right(r) if !r.optimal => AlgoCell("OOT", millis = ms)
      case Right(r) =>
        AlgoCell("ok", r.result.size, ms, MemoryModel.toMB(MemoryModel.optBytes(g, k, r.cliqueCount, r.conflictEdges)))
    }
  }

  /** One line counting OPT cells by outcome, from their statuses. */
  def optOutcomes(statuses: Seq[String]): String = {
    def n(s: String) = statuses.count(_ == s)
    s"OPT cells: ${n("ok")} optimal, ${n("OOT")} OOT, ${n("OOM")} OOM, ${n("skip")} not run"
  }

  /** Render rows in a fixed-width table; the bench suites print these. */
  def formatTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = "|" + widths.map(w => "-" * (w + 2)).mkString("|") + "|"
    (fmt(header) +: sep +: rows.map(fmt))
      .mkString("\n")
  }
}
