package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicIntegerArray
import org.scalatest.funsuite.AnyFunSuite
import repro.graphdata.GraphGen

/** L/LP on the slot heap: exact equivalence with the reference
  * `PriorityQueue` implementation, the boundary checks, and the parallel
  * HeapInit on any number of workers.
  */
class LightweightSpec extends AnyFunSuite {

  /** Spans about 40 source blocks, with cliques up to k=6. */
  private lazy val community = GraphGen.community(2500, 14000, 12, 0.85, seed = 31L).toCsr

  private val modes = Seq(PruneMode.NoPrune, PruneMode.Strict, PruneMode.Paper)

  private def assertSameAsReference(g: CsrGraph, k: Int, what: String): Unit = {
    val scores = TestGraphs.nodeScores(g, k)
    for (mode <- modes) {
      val (got, gotStats) = Lightweight.run(g, k, scores, mode)
      val (want, wantStats) = ReferenceLightweight.run(g, k, scores, mode)
      assert(got.cliques.map(_.toSeq) == want.cliques.map(_.toSeq), s"$what k=$k $mode: cliques or order differ")
      assert(gotStats == wantStats, s"$what k=$k $mode")
    }
  }

  for (k <- 3 to 6; seed <- 0 until 4) {
    test(s"slot heap ≡ reference PriorityQueue LP on random graphs, k=$k seed=$seed") {
      val g = TestGraphs.randomGraph(20 + 4 * seed, 0.45 + 0.05 * seed, 1300L * k + seed)
      assertSameAsReference(g, k, s"random seed=$seed")
    }
  }

  test("slot heap ≡ reference PriorityQueue LP on the TestGraphs families, k=3..6") {
    val families = Seq(
      "fig2" -> TestGraphs.fig2, "fig5G1" -> TestGraphs.fig5G1, "fig5G2" -> TestGraphs.fig5G2,
      "K12" -> TestGraphs.complete(12), "path" -> TestGraphs.path(9), "cycle" -> TestGraphs.cycle(10))
    for ((name, g) <- families; k <- 3 to 6) assertSameAsReference(g, k, name)
  }

  test("slot heap ≡ reference PriorityQueue LP on a community graph, k=3..6") {
    for (k <- 3 to 6) assertSameAsReference(community, k, "community")
  }

  test("HeapInit slots are identical on 1, 2 and 7 workers") {
    assert(community.n > 30 * SourcePass.Block)
    for (k <- Seq(3, 6); mode <- modes) {
      val scores = TestGraphs.nodeScores(community, k)
      val dag = CsrGraph.orient(community, Orderings.byScore(scores))
      val (score1, nodes1) = Lightweight.heapInit(dag, k, scores, mode, workers = 1)
      val blocks = score1.indices.filter(score1(_) != CliqueSearch.NoClique).map(_ / SourcePass.Block).distinct
      assert(blocks.size > 30, s"k=$k: cliques in only ${blocks.size} blocks")
      for (w <- Seq(2, 7)) {
        val (score, nodes) = Lightweight.heapInit(dag, k, scores, mode, workers = w)
        assert(score.sameElements(score1), s"k=$k $mode workers=$w: scores differ")
        assert(nodes.sameElements(nodes1), s"k=$k $mode workers=$w: cliques differ")
      }
    }
  }

  /** n isolated nodes: a DAG for `SourcePass.onDriver` that roots no clique. */
  private def isolated(n: Int): CsrGraph = TestGraphs.fromEdges(n, Seq.empty)

  test("onDriver visits every source exactly once on 7 workers") {
    val n = 50 * SourcePass.Block + 17
    val visits = new AtomicIntegerArray(n)
    SourcePass.onDriver(isolated(n), 3, 7)((_, sources) => sources.foreach(visits.incrementAndGet))
    assert((0 until n).forall(visits.get(_) == 1))
  }

  test("a worker failure is rethrown on the caller") {
    val n = 40 * SourcePass.Block
    val atSource = intercept[IllegalStateException] {
      SourcePass.onDriver(isolated(n), 3, 7) { (_, sources) =>
        sources.foreach(u => if (u == 1234) throw new IllegalStateException("boom at 1234"))
      }
    }
    assert(atSource.getMessage == "boom at 1234")
    // Only pool threads throw here, never the calling thread, which holds
    // its first part until a pool worker has thrown.
    val caller = Thread.currentThread()
    val thrown = new CountDownLatch(1)
    val inPool = intercept[ArithmeticException] {
      SourcePass.onDriver(isolated(n), 3, 3) { (_, _) =>
        if (Thread.currentThread() ne caller) { thrown.countDown(); throw new ArithmeticException("pool worker") }
        assert(thrown.await(30, TimeUnit.SECONDS), "no pool worker ran")
      }
    }
    assert(inPool.getMessage == "pool worker")
  }

  test("a node-score array of the wrong length fails at the boundary") {
    val g = TestGraphs.fig2
    val e = intercept[IllegalArgumentException](Lightweight.run(g, 3, new Array[Long](g.n - 1), PruneMode.Paper))
    assert(e.getMessage.contains(s"cover ${g.n - 1} nodes") && e.getMessage.contains(s"has ${g.n}"))
  }

  test("size check: n·k over Int.MaxValue fails, naming n and k") {
    val maxN = Int.MaxValue / 6
    Lightweight.checkSize(maxN, 6)
    val e = intercept[IllegalStateException](Lightweight.checkSize(maxN + 1, 6))
    assert(e.getMessage.contains(s"${maxN + 1} sources") && e.getMessage.contains("k=6"))
  }
}
