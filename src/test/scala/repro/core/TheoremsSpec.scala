package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The paper's theorems, checked as executable properties. */
class TheoremsSpec extends AnyFunSuite {

  /** Clique degree in the clique graph G_C (Definition 4), brute force. */
  private def cliqueDegree(all: Set[Set[Int]], c: Set[Int]): Int =
    all.count(o => o != c && o.intersect(c).nonEmpty)

  for (k <- 3 to 5; seed <- 0 until 6) {
    test(s"Theorem 2: (s_c-k)/(k-1) <= deg_GC <= s_c-k, k=$k seed=$seed") {
      val g = TestGraphs.randomGraph(14 + seed, 0.5, 2000L * k + seed)
      val all = TestGraphs.bruteCliques(g, k)
      val sn = TestGraphs.bruteNodeScores(g, k)
      for (c <- all) {
        val sc = c.toSeq.map(sn(_)).sum
        val deg = cliqueDegree(all, c)
        assert(deg <= sc - k, s"upper bound violated for $c: deg=$deg sc=$sc")
        assert(deg >= (sc - k).toDouble / (k - 1) - 1e-9,
          s"lower bound violated for $c: deg=$deg sc=$sc")
      }
    }
  }

  for (k <- 3 to 4; seed <- 0 until 6) {
    test(s"Theorem 3: every maximal S is a k-approximation, k=$k seed=$seed") {
      val g = TestGraphs.randomGraph(14 + seed, 0.55, 3000L * k + seed)
      val opt = TestGraphs.bruteMaxDisjoint(g, k)
      val sn = TestGraphs.nodeScores(g, k)
      for (r <- Seq(BasicFramework.run(g, k),
                    TestGraphs.gc(g, k, sn)._1,
                    Lightweight.run(g, k, sn, PruneMode.Paper)._1)) {
        assert(Validation.isMaximal(g, r))
        assert(r.size.toDouble * k >= opt.toDouble - 1e-9,
          s"approx ratio violated: |S|=${r.size}, OPT=$opt")
      }
    }
  }

  test("Lemma 1 implication: a clique with ≥ k+1 neighbours has two adjacent neighbours") {
    for (seed <- 0 until 6; k <- 3 to 4) {
      val g = TestGraphs.randomGraph(14, 0.6, 4000L * k + seed)
      val all = TestGraphs.bruteCliques(g, k)
      for (c <- all) {
        val nbrs = all.filter(o => o != c && o.intersect(c).nonEmpty).toSeq
        if (nbrs.length >= k + 1) {
          val exists = nbrs.combinations(2).exists { p =>
            p(0).intersect(p(1)).nonEmpty
          }
          assert(exists, s"Lemma 1 violated at $c")
        }
      }
    }
  }

  test("NP-hardness reduction sanity: XkC instance maps to a clique packing") {
    // hyperedges {0,1,2},{2,3,4},{5,6,7} as 3-cliques; exact cover of
    // {0..7} needs disjoint hyperedges — packing finds the max subset.
    val hyper = Seq(Set(0, 1, 2), Set(2, 3, 4), Set(5, 6, 7))
    val edges = hyper.flatMap(h => h.toSeq.combinations(2).map(p => (p(0), p(1))))
    val g = TestGraphs.fromEdges(8, edges)
    val Right(opt) = ExactSolver.run(g, 3)
    assert(opt.result.size == 2) // {0,1,2} and {5,6,7} (or {2,3,4},{5,6,7})
  }
}
