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
