package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ExactSolverSpec extends AnyFunSuite {

  test("OPT on fig2 finds the maximum (3 disjoint 3-cliques, Example 1)") {
    val Right(opt) = ExactSolver.run(TestGraphs.fig2, 3)
    assert(opt.optimal)
    assert(opt.result.size == 3)
    assert(opt.cliqueCount == 7)
    assert(Validation.validate(TestGraphs.fig2, opt.result).isEmpty)
  }

  test("OPT clique-graph edge count on fig2 matches Fig. 3") {
    // Fig. 3: C1-C2, C2-C3 (share v3/v5/v6 chain) ... the clique graph of
    // the running example has edges between every non-disjoint pair:
    val pairs = for {
      i <- TestGraphs.fig2Cliques.indices
      j <- (i + 1) until TestGraphs.fig2Cliques.length
      if TestGraphs.fig2Cliques(i).intersect(TestGraphs.fig2Cliques(j)).nonEmpty
    } yield (i, j)
    val Right(opt) = ExactSolver.run(TestGraphs.fig2, 3)
    assert(opt.conflictEdges == pairs.length.toLong)
  }

  for (k <- 3 to 5; seed <- 0 until 6) {
    test(s"OPT equals exhaustive optimum k=$k seed=$seed") {
      val g = TestGraphs.randomGraph(13 + seed, 0.5, 60L * k + seed)
      val Right(opt) = ExactSolver.run(g, k)
      assert(opt.optimal)
      assert(opt.result.size == TestGraphs.bruteMaxDisjoint(g, k))
      assert(Validation.validate(g, opt.result).isEmpty)
    }
  }

  /** Disjoint union of the pieces: piece i's node v becomes v plus the
    * node counts of the pieces before it.
    */
  private def disjointUnion(pieces: Seq[CsrGraph]): CsrGraph = {
    val offsets = pieces.scanLeft(0)(_ + _.n)
    val edges = for {
      (p, off) <- pieces.zip(offsets)
      u <- 0 until p.n
      v <- p.neighborsOf(u) if u < v
    } yield (u + off, v + off)
    TestGraphs.fromEdges(offsets.last, edges)
  }

  for (k <- 3 to 5; seed <- 0 until 8) {
    test(s"OPT on a multi-component graph equals the brute-force optimum summed over its pieces k=$k seed=$seed") {
      val rnd = new scala.util.Random(977L * k + seed)
      val pieces = Seq.fill(2 + rnd.nextInt(3))(
        TestGraphs.randomGraph(5 + rnd.nextInt(7), 0.45 + 0.35 * rnd.nextDouble(), rnd.nextLong()))
      val g = disjointUnion(pieces)
      val Right(opt) = ExactSolver.run(g, k)
      assert(opt.optimal)
      assert(Validation.validate(g, opt.result).isEmpty)
      assert(opt.result.size == pieces.map(TestGraphs.bruteMaxDisjoint(_, k)).sum)
      val cliques = TestGraphs.bruteCliques(g, k).toVector
      val sharing = for (i <- cliques.indices; j <- i + 1 until cliques.length
                         if cliques(i).intersect(cliques(j)).nonEmpty) yield 1
      assert(opt.cliqueCount == cliques.length && opt.conflictEdges == sharing.length)
    }
  }

  test("OPT reports OOM when the clique count exceeds the budget") {
    val g = TestGraphs.complete(12) // C(12,3) = 220 cliques
    assert(ExactSolver.run(g, 3, maxCliques = 100).isLeft)
  }

  test("OPT's clique budget: τ = maxCliques is solved, τ = maxCliques + 1 is OOM") {
    val g = TestGraphs.complete(12) // C(12,3) = 220 cliques
    val Right(atBudget) = ExactSolver.run(g, 3, maxCliques = 220)
    assert(atBudget.optimal && atBudget.cliqueCount == 220 && atBudget.result.size == 4)
    assert(ExactSolver.run(g, 3, maxCliques = 219).isLeft)
  }

  test("OPT stops listing at the first source that takes it over the clique budget") {
    // By id, source u of K12 roots the C(u,2) triangles on lower ids: sources
    // 0..8 root C(9,3) = 84 of the 220, and 0..9 root C(10,3) = 120.
    val Left(oom) = ExactSolver.run(TestGraphs.complete(12), 3, maxCliques = 100)
    assert(oom.contains("120 cliques from sources 0..9"), oom)
  }

  test("OPT reports non-optimal (OOT) under a tiny time budget on a hard instance") {
    val g = disjointUnion(Seq(TestGraphs.complete(4), TestGraphs.randomGraph(90, 0.5, 9),
                              TestGraphs.fig2, TestGraphs.randomGraph(40, 0.5, 10), TestGraphs.complete(5)))
    ExactSolver.run(g, 3, timeBudgetMs = 0) match {
      case Right(opt) =>
        assert(!opt.optimal)
        assert(Validation.validate(g, opt.result).isEmpty)
        assert(Validation.isMaximal(g, opt.result))
      case Left(_) => fail("should not OOM")
    }
  }

  test("OPT on a graph with no k-cliques returns the empty packing") {
    val Right(opt) = ExactSolver.run(TestGraphs.cycle(9), 3)
    assert(opt.optimal && opt.result.size == 0 && opt.cliqueCount == 0)
  }

  test("OPT on two disjoint triangles takes both") {
    val g = TestGraphs.fromEdges(6, Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    val Right(opt) = ExactSolver.run(g, 3)
    assert(opt.result.size == 2 && opt.conflictEdges == 0)
  }
}
