package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Lightweight, TestGraphs}

class HarnessSpec extends AnyFunSuite {

  test("memory model is monotone: HG <= LP <= GC <= OPT") {
    val g = TestGraphs.randomGraph(50, 0.3, 1)
    for (k <- 3 to 6) {
      val hg = MemoryModel.hgBytes(g)
      val lp = MemoryModel.lpBytes(g, k)
      val gc = MemoryModel.gcBytes(g, k, tau = 100000)
      val opt = MemoryModel.optBytes(g, k, tau = 100000, conflictEdges = 1000000)
      assert(hg <= lp && lp <= gc && gc <= opt)
    }
  }

  test("memory model scales linearly in tau") {
    val g = TestGraphs.randomGraph(50, 0.3, 2)
    val a = MemoryModel.gcBytes(g, 4, 1000)
    val b = MemoryModel.gcBytes(g, 4, 2000)
    val c = MemoryModel.gcBytes(g, 4, 3000)
    assert(b - a == c - b)
  }

  test("toMB converts bytes") {
    assert(MemoryModel.toMB(1024L * 1024) == 1.0)
  }

  test("AlgoCell renders ok / OOM / OOT cells") {
    assert(AlgoCell("ok", 5, 10, 1.0).sizeStr == "5")
    assert(AlgoCell("OOM").sizeStr == "OOM")
    assert(AlgoCell("OOT").timeStr == "OOT")
    assert(AlgoCell("ok", 5, 10, 1.25).memStr == "1.3")
  }

  test("AlgoCell renders the L/LP counters: FindMin calls and stale-pop ratio") {
    val lp = AlgoCell("ok", 3, 10, 1.0, Some(Lightweight.Stats(findMinCalls = 8, heapPushes = 7, stalePops = 1)))
    assert(lp.findMinStr == "8" && lp.staleRatioStr == "0.25")
    assert(AlgoCell("ok", 0, 1, 1.0, Some(Lightweight.Stats(0, 0, 0))).staleRatioStr == "-")
    assert(AlgoCell("skip").findMinStr == "skip" && AlgoCell("skip").staleRatioStr == "skip")
  }

  test("optOutcomes counts OPT cells as optimal / OOT / OOM / not run") {
    assert(Runner.optOutcomes(Seq("ok", "OOT", "ok", "OOM", "skip")) ==
      "OPT cells: 2 optimal, 1 OOT, 1 OOM, 1 not run")
  }

  test("formatTable aligns columns and separators") {
    val t = Runner.formatTable(Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = t.split("\n")
    assert(lines.length == 4)
    assert(lines.map(_.length).distinct.length == 1) // constant width
    assert(lines(1).forall(c => c == '|' || c == '-'))
  }

  /** Hand-built rows, Zeta before Alpha at every k: OPT optimal (with a
    * zero optimum), OOT, not run and OOM, and one GC OOM cell.
    */
  private val evalRows = {
    def ok(size: Int) = AlgoCell("ok", size, 1, 0.5)
    val cells = Map(
      ("Zeta", 3) -> (ok(9), 7, ok(9), 8),
      ("Zeta", 4) -> (AlgoCell("OOT", millis = 10000), 5, AlgoCell("OOM", modelMB = 600.0), 5),
      ("Zeta", 5) -> (AlgoCell("skip"), 3, ok(3), 3),
      ("Zeta", 6) -> (AlgoCell("OOM"), 1, ok(2), 2),
      ("Alpha", 3) -> (ok(0), 0, ok(0), 0),
      ("Alpha", 4) -> (ok(4), 3, ok(4), 4),
      ("Alpha", 5) -> (ok(2), 2, ok(2), 2),
      ("Alpha", 6) -> (ok(1), 1, ok(1), 1))
    for (k <- 3 to 6; name <- Seq("Zeta", "Alpha")) yield {
      val (opt, hg, gc, lp) = cells((name, k))
      EvalRow(name, k, n = 12, m = 30L, tau = 7L, opt, ok(hg), gc, AlgoCell("skip"), ok(lp))
    }
  }

  test("Table II: datasets in first-seen order, k-major columns, Δ against HG, OOM/OOT/skip printed") {
    assert(Tables.renderTableII(evalRows) ==
      """#| Name  | OPT(k=3) | HG(k=3) | GC Δ(k=3) | LP Δ(k=3) | OPT(k=4) | HG(k=4) | GC Δ(k=4) | LP Δ(k=4) | OPT(k=5) | HG(k=5) | GC Δ(k=5) | LP Δ(k=5) | OPT(k=6) | HG(k=6) | GC Δ(k=6) | LP Δ(k=6) |
        #|-------|----------|---------|-----------|-----------|----------|---------|-----------|-----------|----------|---------|-----------|-----------|----------|---------|-----------|-----------|
        #| Zeta  | 9        | 7       | 2         | 1         | OOT      | 5       | OOM       | 0         | skip     | 3       | 0         | 0         | OOM      | 1       | 1         | 1         |
        #| Alpha | 0        | 0       | 0         | 0         | 4        | 3       | 1         | 1         | 2        | 2       | 0         | 0         | 1        | 1       | 0         | 0         |
        #OPT cells: 5 optimal, 1 OOT, 1 OOM, 1 not run""".stripMargin('#'))
  }

  test("Table IV: LP and OPT per cell, ER as -, 0% or a percentage, and the OPT outcome line") {
    assert(Tables.renderTableIV(evalRows) ==
      """#| Dataset | n  | m  | k | LP | OPT  | ER     |
        #|---------|----|----|---|----|------|--------|
        #| Zeta    | 12 | 30 | 3 | 8  | 9    | 11.11% |
        #| Alpha   | 12 | 30 | 3 | 0  | 0    | 0%     |
        #| Zeta    | 12 | 30 | 4 | 5  | OOT  | -      |
        #| Alpha   | 12 | 30 | 4 | 4  | 4    | 0.00%  |
        #| Zeta    | 12 | 30 | 5 | 3  | skip | -      |
        #| Alpha   | 12 | 30 | 5 | 2  | 2    | 0.00%  |
        #| Zeta    | 12 | 30 | 6 | 2  | OOM  | -      |
        #| Alpha   | 12 | 30 | 6 | 1  | 1    | 0.00%  |
        #OPT cells: 5 optimal, 1 OOT, 1 OOM, 1 not run""".stripMargin('#'))
  }

  test("Table VII: column-major, every idx ms column before the idx size columns") {
    val rows = for (k <- 3 to 6; name <- Seq("Zeta", "Alpha")) yield
      Tables.DynamicRow(name, k, indexMs = k * 1.25, indexSize = 100L * k + name.length,
        Tables.OpTimes(1, 1, 1), Tables.OpTimes(2, 2, 2), Tables.OpTimes(3, 3, 3),
        afterDelDelta = k - 4, afterInsDelta = 0, afterMixDelta = 1 - k, swapCount = k)
    assert(Tables.renderTableVII(rows) ==
      """#| Dataset | idx ms(k=3) | idx ms(k=4) | idx ms(k=5) | idx ms(k=6) | idx size(k=3) | idx size(k=4) | idx size(k=5) | idx size(k=6) |
        #|---------|-------------|-------------|-------------|-------------|---------------|---------------|---------------|---------------|
        #| Zeta    | 3.8         | 5.0         | 6.3         | 7.5         | 304           | 404           | 504           | 604           |
        #| Alpha   | 3.8         | 5.0         | 6.3         | 7.5         | 305           | 405           | 505           | 605           |""".stripMargin('#'))
  }

  test("timed returns result and non-negative duration") {
    val (r, ms) = Runner.timed { Thread.sleep(5); 42 }
    assert(r == 42 && ms >= 0)
  }

  test("BenchConfig defaults are sane") {
    assert(BenchConfig.ks == Seq(3, 4, 5, 6))
    assert(BenchConfig.memBudgetMB > 0)
    assert(BenchConfig.optTimeBudgetMs > 0)
    assert(BenchConfig.wsDegrees.forall(_ % 2 == 0))
  }
}
