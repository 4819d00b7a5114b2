package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicIntegerArray
import org.scalatest.funsuite.AnyFunSuite
import repro.graphdata.GraphGen

/** L/LP on the slot heap: exact equivalence with the reference
  * `PriorityQueue` implementation, on the cached rows and with any number
  * of speculating helpers, the boundary checks, and the parallel HeapInit
  * on any number of workers.
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

  /** Run `run` on `helpers` helpers and a ring of `ring` entries, `times`
    * times, against one reference run per mode: any race that installs a
    * result the loop would not compute changes S or the Stats.
    */
  private def assertHelpersSameAsReference(g: CsrGraph, k: Int, helpers: Seq[Int], ring: Int, times: Int): Unit = {
    val scores = TestGraphs.nodeScores(g, k)
    for (mode <- modes) {
      val (want, wantStats) = ReferenceLightweight.run(g, k, scores, mode)
      val wanted = want.cliques.map(_.toSeq)
      for (h <- helpers; rep <- 0 until times) {
        val (got, gotStats) = Lightweight.run(g, k, scores, mode, h, ring)
        assert(got.cliques.map(_.toSeq) == wanted, s"k=$k $mode helpers=$h ring=$ring run $rep: cliques or order differ")
        assert(gotStats == wantStats, s"k=$k $mode helpers=$h ring=$ring run $rep")
      }
    }
  }

  for (k <- 3 to 6) {
    test(s"S and Stats ≡ reference with 0, 1, 2, 3 and 7 helpers on a community graph, k=$k, 5 runs each") {
      assertHelpersSameAsReference(community, k, Seq(0, 1, 2, 3, 7), Lightweight.ringFor(community.n), 5)
    }
    test(s"S and Stats ≡ reference with 1, 3 and 7 helpers on a 4-entry ring (entries reused at once), k=$k, 5 runs each") {
      assertHelpersSameAsReference(community, k, Seq(1, 3, 7), 4, 5)
    }
  }

  /** Hub 0 joined to nodes 2..65 (64 nodes) and hub 1 to 66..130 (65), each
    * group a G(n, 0.45), with a few edges across. The hubs root the most
    * cliques, so they rank above all their neighbours.
    */
  private lazy val hubs64and65: CsrGraph = {
    val rnd = new scala.util.Random(6465L)
    val edges = for (u <- 2 to 130; v <- (u + 1) to 130 if rnd.nextDouble() < (if ((u <= 65) == (v <= 65)) 0.45 else 0.03))
      yield (u, v)
    TestGraphs.fromEdges(131, edges ++ (2 to 65).map((0, _)) ++ (66 to 130).map((1, _)))
  }

  test("sources of out-degree 64 (cached rows) and 65 (rebuilt rows): findMin and S ≡ reference") {
    val g = hubs64and65
    for (k <- 3 to 6) {
      val scores = TestGraphs.nodeScores(g, k)
      val dag = CsrGraph.orient(g, Orderings.byScore(scores))
      assert(dag.degree(0) == 64 && dag.degree(1) == 65, s"k=$k: hub out-degrees ${dag.degree(0)}, ${dag.degree(1)}")
      for (mode <- modes) {
        val (score, _, rows) = Lightweight.heapInit(dag, k, scores, mode, workers = 2)
        assert(score(0) != CliqueSearch.NoClique && score(1) != CliqueSearch.NoClique, s"k=$k $mode: a hub roots no clique")
        assert((0 until 64).exists(i => rows(dag.offsets(0) + i) != 0L), s"k=$k $mode: hub 0's rows are not cached")
        assert((0 until 65).forall(i => rows(dag.offsets(1) + i) == 0L), s"k=$k $mode: hub 1's rows are cached")
        // Masked findMin on the cached rows ≡ on rows it builds itself.
        val cached = new CliqueSearch(dag, k)
        cached.rowCache = rows
        val built = new CliqueSearch(dag, k)
        val rnd = new scala.util.Random(64L * k + mode.hashCode)
        for (trial <- 0 until 20) {
          val valid = Array.fill(g.n)(rnd.nextDouble() < 0.85)
          for (u <- 0 until g.n) {
            val (a, b) = (new Array[Int](k), new Array[Int](k))
            val sa = cached.findMin(u, valid, scores, mode, a, 0)
            val sb = built.findMin(u, valid, scores, mode, b, 0)
            assert(sa == sb && a.sameElements(b), s"k=$k $mode trial $trial source $u")
          }
          assert(cached.searches == built.searches, s"k=$k $mode trial $trial: searches differ")
        }
      }
      assertSameAsReference(g, k, "hubs of out-degree 64 and 65")
      assertHelpersSameAsReference(g, k, Seq(3), 4, 3)
    }
  }

  test("HeapInit slots are identical on 1, 2 and 7 workers") {
    assert(community.n > 30 * SourcePass.Block)
    for (k <- Seq(3, 6); mode <- modes) {
      val scores = TestGraphs.nodeScores(community, k)
      val dag = CsrGraph.orient(community, Orderings.byScore(scores))
      val (score1, nodes1, rows1) = Lightweight.heapInit(dag, k, scores, mode, workers = 1)
      val blocks = score1.indices.filter(score1(_) != CliqueSearch.NoClique).map(_ / SourcePass.Block).distinct
      assert(blocks.size > 30, s"k=$k: cliques in only ${blocks.size} blocks")
      assert(rows1.count(_ != 0L) > dag.adjSize / 10, s"k=$k: few cached rows")
      for (w <- Seq(2, 7)) {
        val (score, nodes, rows) = Lightweight.heapInit(dag, k, scores, mode, workers = w)
        assert(score.sameElements(score1), s"k=$k $mode workers=$w: scores differ")
        assert(nodes.sameElements(nodes1), s"k=$k $mode workers=$w: cliques differ")
        assert(rows.sameElements(rows1), s"k=$k $mode workers=$w: cached rows differ")
      }
    }
  }

  test("no helper is left in its loop after run returns") {
    def inHelperLoop: Seq[Thread] = {
      import scala.jdk.CollectionConverters._
      Thread.getAllStackTraces.asScala.collect {
        case (t, stack) if stack.exists(f => f.getClassName.contains("Lightweight$Speculation") && f.getMethodName == "help") => t
      }.toSeq
    }
    val scores = TestGraphs.nodeScores(community, 4)
    for (h <- Seq(1, 3, 7)) {
      Lightweight.run(community, 4, scores, PruneMode.Paper, h, 64)
      assert(inHelperLoop.isEmpty, s"helpers=$h: ${inHelperLoop.map(_.getName)} still in the helper loop")
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

  test("alongside rethrows a pool thread's failure on the caller") {
    val e = intercept[ArithmeticException] {
      SourcePass.alongside(3, () => throw new ArithmeticException("helper"))(42)(())
    }
    assert(e.getMessage == "helper")
  }

  test("alongside stops and joins its pool threads when the caller throws, and rethrows the caller's failure") {
    @volatile var stop = false
    val running = new java.util.concurrent.atomic.AtomicInteger(0)
    val e = intercept[IllegalStateException] {
      SourcePass.alongside(3, () => {
        running.incrementAndGet()
        try { while (!stop) Thread.onSpinWait() } finally running.decrementAndGet()
        throw new ArithmeticException("after stop")
      })(throw new IllegalStateException("caller")) { stop = true }
    }
    assert(e.getMessage == "caller")
    assert(running.get == 0, "a pool thread is still running")
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
