package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.math.Ordering.Implicits.seqOrdering
import scala.util.Random

/** HG (Algorithm 1), GC (Algorithm 2), L/LP (Algorithm 3). */
class AlgorithmsSpec extends AnyFunSuite {

  import TestGraphs.nodeScores

  // -------------------------------------------------------------- HG

  test("HG on fig2 finds a maximal disjoint set") {
    val r = BasicFramework.run(TestGraphs.fig2, 3)
    assert(Validation.validate(TestGraphs.fig2, r).isEmpty)
    assert(Validation.isMaximal(TestGraphs.fig2, r))
    assert(r.size >= 2) // any maximal set here has >= 2 cliques
  }

  test("HG with identity ordering follows Example 2's schedule: first clique at v6") {
    // η(v_i) ascending in i: v6 (id 5) is the first node with ≥2
    // out-neighbours, so the first selected clique is rooted there.
    // (Example 2's FindOne scans candidates in a different order and gets
    // (v6,v5,v3); ours deterministically gets (v6,v3,v1) — both legal.)
    val r = BasicFramework.run(TestGraphs.fig2, 3, Orderings.byId(9))
    assert(r.cliques.head.contains(5))
    assert(Validation.validate(TestGraphs.fig2, r).isEmpty)
    assert(Validation.isMaximal(TestGraphs.fig2, r))
  }

  test("HG on empty / too-sparse graphs returns no cliques") {
    assert(BasicFramework.run(TestGraphs.path(6), 3).size == 0)
    assert(BasicFramework.run(TestGraphs.cycle(8), 3).size == 0)
    assert(BasicFramework.run(TestGraphs.complete(3), 4).size == 0)
  }

  test("HG on K_9 with k=3 packs 3 disjoint triangles") {
    assert(BasicFramework.run(TestGraphs.complete(9), 3).size == 3)
  }

  test("HG is deterministic") {
    val g = TestGraphs.randomGraph(40, 0.3, 1)
    val a = BasicFramework.run(g, 3)
    val b = BasicFramework.run(g, 3)
    assert(a.cliques.map(_.toSet) == b.cliques.map(_.toSet))
  }

  for (k <- 3 to 5; seed <- 0 until 5) {
    test(s"HG validity + maximality on random graphs k=$k seed=$seed") {
      val g = TestGraphs.randomGraph(18 + seed * 2, 0.45, 90L + seed)
      val r = BasicFramework.run(g, k)
      assert(Validation.validate(g, r).isEmpty)
      assert(Validation.isMaximal(g, r))
    }
  }

  // -------------------------------------------------------------- GC

  test("GC on fig2 is valid, maximal and optimal (3 cliques)") {
    val (r, stored) = TestGraphs.gc(TestGraphs.fig2, 3, nodeScores(TestGraphs.fig2, 3))
    assert(Validation.validate(TestGraphs.fig2, r).isEmpty)
    assert(Validation.isMaximal(TestGraphs.fig2, r))
    assert(stored == 7)
    assert(r.size == 3) // = brute-force optimum; GC's ordering achieves it
    assert(r.size == TestGraphs.bruteMaxDisjoint(TestGraphs.fig2, 3))
  }

  test("GC clique score matches Example 3: s_c(C3) = 9") {
    val scores = nodeScores(TestGraphs.fig2, 3)
    assert(TestGraphs.cliqueScore(Seq(4, 5, 7), scores) == 9)
  }

  for (k <- 3 to 5; seed <- 0 until 5) {
    test(s"GC validity + maximality on random graphs k=$k seed=$seed") {
      val g = TestGraphs.randomGraph(18 + seed * 2, 0.45, 190L + seed)
      val (r, _) = TestGraphs.gc(g, k, nodeScores(g, k))
      assert(Validation.validate(g, r).isEmpty)
      assert(Validation.isMaximal(g, r))
    }
  }

  /** Reference GC order: sort by the tuple (clique score, canonical
    * clique) lexicographically, then select greedily.
    */
  private def referenceGc(n: Int, cliques: Seq[Set[Int]], scores: Array[Long]): Seq[Seq[Int]] = {
    val used = new Array[Boolean](n)
    cliques.map(_.toSeq.sorted)
      .sortBy(c => (TestGraphs.cliqueScore(c, scores), c))
      .filter { c =>
        val free = c.forall(!used(_))
        if (free) c.foreach(used(_) = true)
        free
      }
  }

  /** select on the listing (GC's pipeline in `TestGraphs.gc`) equals the
    * reference in content and selection order; a shuffled copy of the
    * listing, once it differs from it, is rejected as out of order.
    */
  private def assertGcOrder(g: CsrGraph, k: Int, scores: Array[Long], seed: Long): Unit = {
    val want = referenceGc(g.n, TestGraphs.bruteCliques(g, k).toSeq, scores)
    val listed = CliqueSearch.listAll(CsrGraph.orient(g, Orderings.byId(g.n)), k)
    assert(CliqueScoreGreedy.select(g.n, k, listed, scores).cliques.map(_.toSeq) == want)
    assert(TestGraphs.gc(g, k, scores)._1.cliques.map(_.toSeq) == want)
    val cs = TestGraphs.grouped(listed).map(_.toSeq).toSeq
    if (cs.length >= 2) {
      val rnd = new Random(seed)
      val shuffled = Iterator.continually(rnd.shuffle(cs)).find(_ != cs).get
      assert(shuffled != cs)
      val e = intercept[IllegalArgumentException](
        CliqueScoreGreedy.select(g.n, k, Cliques(k, shuffled.flatten.toArray), scores))
      assert(e.getMessage.contains("in lex order"), e.getMessage)
    }
  }

  for (k <- 3 to 6; seed <- 0 until 4) {
    test(s"GC select order equals the (score, canon) tuple-sort reference k=$k seed=$seed") {
      val g = TestGraphs.randomGraph(16 + 2 * seed, 0.55, 333L * k + seed)
      assertGcOrder(g, k, nodeScores(g, k), seed)
    }
  }

  /** Supplied node scores of `digits` 16-bit digits, each digit one of a
    * few values, so that many cliques tie on a digit and clique sums carry
    * from one digit into the next. The top digit stays small enough that
    * a sum of k ≤ 6 scores fits a `Long`.
    */
  private def digitScores(n: Int, digits: Int, seed: Long): Array[Long] = {
    val rnd = new Random(seed)
    val low = Array(0L, 1L, 0xFFFFL)
    Array.fill(n) {
      (0 until digits).map { d =>
        val v = if (d == digits - 1) 1L + rnd.nextInt(3) else low(rnd.nextInt(low.length))
        v << (16 * d)
      }.sum
    }
  }

  for (digits <- 2 to 4; k <- 3 to 5) {
    test(s"GC select order equals the tuple-sort reference on supplied $digits-digit scores k=$k") {
      for (seed <- 0 until 3) {
        val g = TestGraphs.randomGraph(18 + 2 * seed, 0.55, 4000L * digits + 10 * k + seed)
        val scores = digitScores(g.n, digits, seed)
        val bits = 64 - java.lang.Long.numberOfLeadingZeros(scores.max)
        assert(bits > 16 * (digits - 1) && bits <= 16 * digits, s"$bits bits")
        assertGcOrder(g, k, scores, seed)
      }
    }
  }

  test("GC select order on tie-heavy graphs: lex rank decides among equal scores") {
    // four K5s and one K7 (ids 20..26), and K_10 alone
    val k5s = for (b <- 0 until 4; i <- 0 until 5; j <- i + 1 until 5) yield (5 * b + i, 5 * b + j)
    val k7 = for (i <- 0 until 7; j <- i + 1 until 7) yield (20 + i, 20 + j)
    for (g <- Seq(TestGraphs.fromEdges(27, k5s ++ k7), TestGraphs.complete(10)); k <- 3 to 5) {
      val scores = nodeScores(g, k)
      val cliques = TestGraphs.bruteCliques(g, k).toSeq
      val distinctScores = cliques.map(TestGraphs.cliqueScore(_, scores)).distinct
      assert(distinctScores.size < cliques.size / 4, s"k=$k: too few ties")
      assertGcOrder(g, k, scores, k)
    }
  }

  test("GC select on zero cliques returns the empty packing") {
    val g = TestGraphs.cycle(10)
    val listed = CliqueSearch.listAll(CsrGraph.orient(g, Orderings.byId(g.n)), 3)
    assert(listed.length == 0)
    assert(CliqueScoreGreedy.select(g.n, 3, listed, new Array[Long](g.n)).size == 0)
    assert(TestGraphs.gc(g, 3, nodeScores(g, 3)) == (DisjointResult(3, Vector.empty), 0L))
  }

  test("GC select rejects a negative node score") {
    val g = TestGraphs.complete(6)
    val listed = CliqueSearch.listAll(CsrGraph.orient(g, Orderings.byId(g.n)), 3)
    val scores = Array.fill(g.n)(5L)
    scores(4) = -1
    val e = intercept[IllegalArgumentException](CliqueScoreGreedy.select(g.n, 3, listed, scores))
    assert(e.getMessage.contains("node 4 has score -1"))
  }

  test("GC select rejects a clique score over Long.MaxValue") {
    val g = TestGraphs.complete(6)
    val listed = CliqueSearch.listAll(CsrGraph.orient(g, Orderings.byId(g.n)), 3)
    val scores = Array.fill(g.n)(1L)
    scores(2) = Long.MaxValue - 1
    val e = intercept[IllegalArgumentException](CliqueScoreGreedy.select(g.n, 3, listed, scores))
    assert(e.getMessage.contains("over Long.MaxValue"))
  }

  test("GC select orders node scores of Long.MaxValue / 8") {
    val g = TestGraphs.complete(6)
    val scores = Array.tabulate(g.n)(u => Long.MaxValue / 8 - (u % 2))
    assertGcOrder(g, 3, scores, 0)
  }

  /** select's message on `nodes`, listed as 3-cliques of a 6-node graph
    * with zero scores.
    */
  private def rejected(nodes: Int*): String =
    intercept[IllegalArgumentException](
      CliqueScoreGreedy.select(6, 3, Cliques(3, nodes.toArray), new Array[Long](6))).getMessage

  test("GC select rejects a node id outside [0, n), naming the clique") {
    assert(rejected(0, 1, 2, 3, 4, 6).contains("clique 1 has node 6 outside [0, 6)"))
    assert(rejected(-1, 0, 1).contains("clique 0 has node -1 outside [0, 6)"))
  }

  test("GC select rejects a repeated clique") {
    assert(rejected(0, 1, 2, 1, 2, 3, 1, 2, 3).contains("clique 2 repeats clique 1"))
  }

  test("GC select rejects a clique whose ids do not rise strictly") {
    assert(rejected(0, 1, 2, 5, 4, 3).contains("clique 1's ids do not rise strictly: 5,4,3"))
    assert(rejected(1, 1, 2).contains("clique 0's ids do not rise strictly"))
  }

  test("GC select rejects a listing out of lex order") {
    assert(rejected(0, 1, 3, 0, 1, 2).contains("clique 1 comes before clique 0 in lex order"))
    // a real listing with two neighbouring cliques swapped
    val g = TestGraphs.complete(6)
    val cs = TestGraphs.grouped(CliqueSearch.listAll(CsrGraph.orient(g, Orderings.byId(g.n)), 3))
    assert(rejected((cs.take(4) ++ Seq(cs(5), cs(4)) ++ cs.drop(6)).flatten.toIndexedSeq: _*)
      .contains("clique 5 comes before clique 4 in lex order"))
  }

  test("GC select rejects a node-score array whose length is not n") {
    val g = TestGraphs.complete(6)
    val listed = CliqueSearch.listAll(CsrGraph.orient(g, Orderings.byId(g.n)), 3)
    for (len <- Seq(g.n - 1, g.n + 1)) {
      val e = intercept[IllegalArgumentException](CliqueScoreGreedy.select(g.n, 3, listed, new Array[Long](len)))
      assert(e.getMessage.contains(s"cover $len nodes") && e.getMessage.contains(s"has ${g.n}"))
    }
  }

  // ------------------------------------------------------------ L/LP

  test("Lightweight on fig2 equals GC (Theorem 4) and is optimal") {
    val scores = nodeScores(TestGraphs.fig2, 3)
    val (gc, _) = TestGraphs.gc(TestGraphs.fig2, 3, scores)
    for (mode <- Seq(PruneMode.NoPrune, PruneMode.Strict)) {
      val (lw, _) = Lightweight.run(TestGraphs.fig2, 3, scores, mode)
      assert(lw.cliques.map(_.toSet) == gc.cliques.map(_.toSet), s"mode=$mode")
    }
    assert(gc.size == 3)
  }

  for (k <- 3 to 5; seed <- 0 until 8) {
    test(s"Theorem 4: L (NoPrune/Strict) produces exactly GC's S, k=$k seed=$seed") {
      val g = TestGraphs.randomGraph(16 + seed, 0.5, 777L * k + seed)
      val scores = nodeScores(g, k)
      val (gc, _) = TestGraphs.gc(g, k, scores)
      val (l, _) = Lightweight.run(g, k, scores, PruneMode.NoPrune)
      val (ls, _) = Lightweight.run(g, k, scores, PruneMode.Strict)
      assert(l.cliques.map(_.toSet) == gc.cliques.map(_.toSet), "NoPrune != GC")
      assert(ls.cliques.map(_.toSet) == gc.cliques.map(_.toSet), "Strict != GC")
    }
  }

  for (k <- 3 to 5; seed <- 0 until 8) {
    test(s"LP (Paper prune) yields same |S| as GC on same-score ties, k=$k seed=$seed") {
      // Paper §VI implementation notes: without the strict total clique
      // ordering quality "may differ slightly"; sizes still match in
      // practice on these inputs because selection is by minimum score.
      val g = TestGraphs.randomGraph(16 + seed, 0.5, 888L * k + seed)
      val scores = nodeScores(g, k)
      val (gc, _) = TestGraphs.gc(g, k, scores)
      val (lp, _) = Lightweight.run(g, k, scores, PruneMode.Paper)
      assert(Validation.validate(g, lp).isEmpty)
      assert(Validation.isMaximal(g, lp))
      assert(math.abs(lp.size - gc.size) <= math.max(1, gc.size / 10),
        s"LP=${lp.size} GC=${gc.size}")
    }
  }

  for (k <- 3 to 6) {
    test(s"L/LP counters: heap pushes = stale pops + |S| (every push pops once), k=$k") {
      var stale = 0L
      // the Theorem 4 graphs, and denser ones so that k=6 has stale pops
      for (seed <- 0 until 8; p <- Seq(0.5, 0.75);
           mode <- Seq(PruneMode.NoPrune, PruneMode.Strict, PruneMode.Paper)) {
        val g = TestGraphs.randomGraph(16 + seed, p, 777L * k + seed)
        val (res, st) = Lightweight.run(g, k, nodeScores(g, k), mode)
        assert(st.heapPushes == st.stalePops + res.size, s"seed=$seed p=$p mode=$mode: $st, |S|=${res.size}")
        stale += st.stalePops
      }
      assert(stale > 0, "no stale pop: the identity was not exercised past HeapInit")
    }
  }

  test("Lightweight prune stats: pruning reduces or keeps findMin work") {
    val g = TestGraphs.randomGraph(60, 0.3, 42)
    val scores = nodeScores(g, 3)
    val (_, noStats) = Lightweight.run(g, 3, scores, PruneMode.NoPrune)
    val (_, lpStats) = Lightweight.run(g, 3, scores, PruneMode.Paper)
    assert(lpStats.findMinCalls <= noStats.findMinCalls + 1)
  }

  test("Lightweight handles graphs with zero k-cliques") {
    val g = TestGraphs.cycle(10)
    val (r, stats) = Lightweight.run(g, 3, nodeScores(g, 3), PruneMode.Paper)
    assert(r.size == 0)
    assert(stats.heapPushes == 0)
  }

  test("all three algorithms agree on K_12, k=4 (3 disjoint cliques)") {
    val g = TestGraphs.complete(12)
    assert(BasicFramework.run(g, 4).size == 3)
    assert(TestGraphs.gc(g, 4, nodeScores(g, 4))._1.size == 3)
    assert(Lightweight.run(g, 4)._1.size == 3)
  }
}
