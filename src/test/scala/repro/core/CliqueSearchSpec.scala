package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graphdata.GraphGen
import scala.collection.mutable.ArrayBuffer
import scala.math.Ordering.Implicits.seqOrdering
import scala.util.Random

class CliqueSearchSpec extends AnyFunSuite {

  private def enumerate(g: CsrGraph, k: Int, rank: Array[Int] = null): Set[Set[Int]] = {
    val r = if (rank != null) rank else Orderings.byId(g.n)
    val dag = CsrGraph.orient(g, r)
    TestGraphs.grouped(CliqueSearch.listAll(dag, k)).map(_.toSet).toSet
  }

  test("fig2: exactly the seven 3-cliques of the paper") {
    assert(enumerate(TestGraphs.fig2, 3) == TestGraphs.fig2Cliques.toSet)
  }

  test("fig2: total count is 7 and no 4-cliques exist") {
    val dag = CsrGraph.orient(TestGraphs.fig2, Orderings.byId(9))
    assert(TestGraphs.tau(dag, 3) == 7)
    assert(TestGraphs.tau(dag, 4) == 0)
  }

  test("fig2 node scores match Example 3: s_n(v6)=s_n(v5)=s_n(v8)=3") {
    val dag = CsrGraph.orient(TestGraphs.fig2, Orderings.byId(9))
    val sn = CliqueSearch.countPerNode(dag, 3)
    assert(sn(5) == 3) // v6
    assert(sn(4) == 3) // v5
    assert(sn(7) == 3) // v8
    assert(sn(0) == 1) // v1
    assert(sn.sum == 7 * 3)
  }

  test("K_n contains C(n,k) k-cliques") {
    val g = TestGraphs.complete(8)
    val dag = CsrGraph.orient(g, Orderings.byId(8))
    def choose(n: Int, k: Int): Long =
      (1 to k).foldLeft(1L)((acc, i) => acc * (n - i + 1) / i)
    for (k <- 3 to 6)
      assert(TestGraphs.tau(dag, k) == choose(8, k), s"k=$k")
  }

  test("path and cycle have no triangles") {
    for (g <- Seq(TestGraphs.path(10), TestGraphs.cycle(10))) {
      val dag = CsrGraph.orient(g, Orderings.byId(g.n))
      assert(TestGraphs.tau(dag, 3) == 0)
    }
  }

  test("triangle count of C_3 is 1 regardless of ordering") {
    val g = TestGraphs.cycle(3)
    for (rank <- Seq(Orderings.byId(3), Orderings.byDegree(g),
                     Orderings.byScore(Array(3L, 2L, 1L)))) {
      val dag = CsrGraph.orient(g, rank)
      assert(TestGraphs.tau(dag, 3) == 1)
    }
  }

  /** Under each of five masks (all valid, then four that keep each node
    * with probability 0.8), findFirst from every source is the first
    * clique forEachFrom visits from it.
    */
  private def checkFindFirst(dag: CsrGraph, k: Int, rnd: Random): Unit = {
    val search = new CliqueSearch(dag, k)
    for (valid <- null +: Seq.fill(4)(Array.fill(dag.n)(rnd.nextDouble() < 0.8)); u <- 0 until dag.n) {
      var first: Seq[Int] = null
      search.forEachFrom(u, valid)(c => { if (first == null) first = c.toSeq; false })
      assert(Option(search.findFirst(u, valid)).map(_.toSeq) == Option(first), s"k=$k u=$u")
    }
  }

  for (k <- 3 to 6; seed <- 0 until 6) {
    test(s"random graph enumeration matches brute force k=$k seed=$seed") {
      val n = 10 + seed * 2
      val g = TestGraphs.randomGraph(n, 0.45, 7L * seed + k)
      val expected = TestGraphs.bruteCliques(g, k)
      assert(enumerate(g, k) == expected)
      // and with a degree ordering: the clique *set* is ordering-invariant
      assert(enumerate(g, k, Orderings.byDegree(g)) == expected)
    }

    test(s"findFirst is the first clique forEachFrom visits, random masks k=$k seed=$seed") {
      val n = 10 + seed * 2
      val g = TestGraphs.randomGraph(n, 0.45, 7L * seed + k)
      checkFindFirst(CsrGraph.orient(g, Orderings.byDegree(g)), k, new Random(11L * seed + k))
    }

    test(s"forEachExtending visits the brute-force extensions in lex order and stops k=$k seed=$seed") {
      val n = 10 + seed * 2
      val g = TestGraphs.randomGraph(n, 0.45, 7L * seed + k)
      val search = new CliqueSearch(k)
      val all = TestGraphs.bruteCliques(g, k)
      val rnd = new Random(13L * seed + k)
      for (p <- 1 to k; prefix <- TestGraphs.bruteCliques(g, p)) {
        val pre = prefix.toArray.sorted
        val cand = (0 until n).filter(v => !prefix(v) && prefix.forall(g.hasEdge(_, v))).toArray
        val expected = all.filter(prefix.subsetOf).toSeq.map(c => (c -- prefix).toSeq.sorted).sorted
        val seen = ArrayBuffer.empty[Seq[Int]]
        val stopped = search.forEachExtending(pre, cand, g.neighborsOf) { c =>
          assert(c.take(p).toSeq == pre.toSeq)
          seen += c.drop(p).toSeq
          false
        }
        assert(!stopped && seen == expected, s"prefix=${pre.mkString(",")}")
        if (expected.nonEmpty) {
          val stopAt = 1 + rnd.nextInt(expected.size)
          var visits = 0
          assert(search.forEachExtending(pre, cand, g.neighborsOf) { _ => visits += 1; visits == stopAt })
          assert(visits == stopAt, s"prefix=${pre.mkString(",")}")
        }
      }
    }
  }

  for (k <- 3 to 5; seed <- 0 until 4) {
    test(s"per-node counts match brute force k=$k seed=$seed") {
      val g = TestGraphs.randomGraph(12 + seed, 0.5, 31L * seed + k)
      val dag = CsrGraph.orient(g, Orderings.byId(g.n))
      assert(CliqueSearch.countPerNode(dag, k).toSeq ==
             TestGraphs.bruteNodeScores(g, k).toSeq)
    }
  }

  // Per-node counts come from pivoting, which shares no code with the
  // enumerating recursion: check them against brute force and against the
  // per-node histogram of `listAll`.

  /** How many of `listed`'s cliques each of n nodes is in. */
  private def histogram(n: Int, listed: Cliques): Seq[Long] = {
    val h = new Array[Long](n)
    listed.nodes.foreach(h(_) += 1)
    h.toSeq
  }

  /** Node 0 joined to every node of G(n, 0.3), on ids 1..n. */
  private def hubOver(n: Int, seed: Long): CsrGraph = {
    val g = TestGraphs.randomGraph(n, 0.3, seed)
    val edges = for (u <- 0 until n; v <- g.neighborsOf(u) if u < v) yield (u + 1, v + 1)
    TestGraphs.fromEdges(n + 1, edges ++ (1 to n).map((0, _)))
  }

  for (k <- 3 to 6) {
    test(s"pivot counts == brute force on random graphs, k=$k") {
      for (seed <- 0 until 6) {
        val g = TestGraphs.randomGraph(14 + 2 * seed, 0.3 + 0.1 * seed, 4100L + 10 * k + seed)
        val brute = TestGraphs.bruteNodeScores(g, k).toSeq
        for (rank <- Seq(Orderings.byId(g.n), Orderings.byDegree(g), Array.tabulate(g.n)(u => g.n - 1 - u)))
          assert(CliqueSearch.countPerNode(CsrGraph.orient(g, rank), k).toSeq == brute, s"seed=$seed")
      }
    }
  }

  for (k <- 3 to 6) {
    test(s"pivot counts == listAll's per-node histogram on community graphs, k=$k") {
      for (seed <- Seq(61L, 62L)) {
        val g = GraphGen.community(900, 7000, 14, 0.85, seed = seed).toCsr
        for (dag <- Seq(CsrGraph.orient(g, Orderings.byId(g.n)), CsrGraph.orient(g, Orderings.byDegree(g))))
          assert(CliqueSearch.countPerNode(dag, k).toSeq == histogram(g.n, CliqueSearch.listAll(dag, k)), s"seed=$seed")
      }
    }
  }

  test("pivot counts on sources of out-degree over 64 and over 128 (multi-word sets)") {
    for ((n, seed) <- Seq((100, 71L), (150, 72L))) {
      val g = hubOver(n, seed)
      for (rank <- Seq(Orderings.byDegree(g), Array.tabulate(g.n)(u => g.n - 1 - u))) {
        val dag = CsrGraph.orient(g, rank)
        assert(dag.degree(0) == n)
        for (k <- 3 to 5) {
          val counts = CliqueSearch.countPerNode(dag, k).toSeq
          assert(counts == histogram(g.n, CliqueSearch.listAll(dag, k)), s"n=$n k=$k")
          if (k <= 4) assert(counts == TestGraphs.bruteNodeScores(g, k).toSeq, s"n=$n k=$k")
        }
      }
    }
  }

  /** `hubOver(100)` and `hubOver(150)` under the two orders that give the
    * hub out-degree 100 or 150: two- and three-word out-lists.
    */
  private def hubDags(): Seq[(CsrGraph, CsrGraph)] =
    for ((n, seed) <- Seq((100, 71L), (150, 72L));
         g = hubOver(n, seed);
         rank <- Seq(Orderings.byDegree(g), Array.tabulate(g.n)(u => g.n - 1 - u))) yield {
      val dag = CsrGraph.orient(g, rank)
      assert(dag.degree(0) == n)
      (g, dag)
    }

  for (k <- 3 to 6) {
    test(s"enumeration matches brute force on sources of out-degree over 64 and over 128, k=$k") {
      for ((g, dag) <- hubDags())
        assert(TestGraphs.grouped(CliqueSearch.listAll(dag, k)).map(_.toSet).toSet == TestGraphs.bruteCliques(g, k))
    }

    test(s"findFirst is the first clique forEachFrom visits on sources of out-degree over 64 and over 128, k=$k") {
      for (((_, dag), i) <- hubDags().zipWithIndex) checkFindFirst(dag, k, new Random(17L * i + k))
    }
  }

  test("pivot counts with isolated nodes and sources of out-degree below k-1") {
    // K5 on 0..4, a path 5-6-7, a star centred on 8, and isolated 12..14
    val edges = (for (u <- 0 until 5; v <- u + 1 until 5) yield (u, v)) ++
      Seq((5, 6), (6, 7), (8, 9), (8, 10), (8, 11))
    val g = TestGraphs.fromEdges(15, edges)
    for (k <- 3 to 6; rank <- Seq(Orderings.byId(g.n), Orderings.byDegree(g))) {
      val counts = CliqueSearch.countPerNode(CsrGraph.orient(g, rank), k)
      assert(counts.toSeq == TestGraphs.bruteNodeScores(g, k).toSeq, s"k=$k")
      assert((12 until 15).forall(counts(_) == 0), s"k=$k")
    }
  }

  test("valid mask excludes cliques using masked nodes") {
    val g = TestGraphs.fig2
    val dag = CsrGraph.orient(g, Orderings.byId(9))
    val search = new CliqueSearch(dag, 3)
    val valid = Array.fill(9)(true)
    // mask v5,v6,v8 (ids 4,5,7): kills C1..C5, leaves C6 (3,6,8)? no — C5
    // uses 7. Remaining cliques among valid nodes: C6=(3,6,8), C7=(1,3,8)
    valid(4) = false; valid(5) = false; valid(7) = false
    val found = scala.collection.mutable.Set.empty[Set[Int]]
    for (u <- 0 until 9) search.forEachFrom(u, valid)(c => { found += c.toSet; false })
    assert(found.toSet == Set(Set(3, 6, 8), Set(1, 3, 8)))
  }

  test("findFirst returns a real clique and null when none exists") {
    val g = TestGraphs.fig2
    val dag = CsrGraph.orient(g, Orderings.byId(9))
    val search = new CliqueSearch(dag, 3)
    val valid = Array.fill(9)(true)
    var hit = 0
    for (u <- 0 until 9) {
      val c = search.findFirst(u, valid)
      if (c != null) {
        hit += 1
        assert(c.length == 3 && c.toSet.subsets(2).forall(p => g.hasEdge(p.head, p.last)))
        assert(c(0) == u) // rooted at its source
      }
    }
    assert(hit > 0)
    val nothing = new CliqueSearch(CsrGraph.orient(TestGraphs.path(5), Orderings.byId(5)), 3)
    for (u <- 0 until 5) assert(nothing.findFirst(u, Array.fill(5)(true)) == null)
  }

  /** For k = 3..6 and five seeds: a random graph dense enough to hold
    * k-cliques, its node scores, the DAG by score, and four masks (all
    * valid, then random). `check` gets, per mask, the search, the scores,
    * the mask and the valid cliques grouped by root (the highest-η node).
    * At k ≥ 4 a scored search reaches the cheapest-completion bound.
    */
  private type FindMinCheck = (Int, CliqueSearch, Array[Long], Array[Boolean], Map[Int, Array[Array[Int]]]) => Unit

  private def findMinCases(seed0: Long)(check: FindMinCheck): Unit =
    for (k <- 3 to 6; seed <- 0 until 5) {
      val n = 16
      val g = TestGraphs.randomGraph(n, 0.45 + 0.08 * (k - 3), seed0 + 10L * k + seed)
      findMinOn(g, k, TestGraphs.nodeScores(g, k), new Random(seed0 + 7L * k + seed))(check)
    }

  /** One graph of `findMinCases`: the DAG by the scores `sn`, then `check`
    * under four masks (all valid, then random).
    */
  private def findMinOn(g: CsrGraph, k: Int, sn: Array[Long], rnd: Random)(check: FindMinCheck): Unit = {
    val rank = Orderings.byScore(sn)
    val dag = CsrGraph.orient(g, rank)
    val search = new CliqueSearch(dag, k)
    val all = TestGraphs.grouped(CliqueSearch.listAll(CsrGraph.orient(g, Orderings.byId(g.n)), k))
    for (valid <- null +: Seq.fill(3)(Array.fill(g.n)(rnd.nextDouble() < 0.85))) {
      val live = if (valid == null) all else all.filter(_.forall(valid(_)))
      check(k, search, sn, valid, live.groupBy(c => c.maxBy(rank(_))))
    }
  }

  /** `findMinOn` on `hubOver(100)` and `hubOver(150)` with their brute-force
    * node scores, under which the hub ranks highest: its out-lists take
    * two and three words.
    */
  private def findMinHubCases(seed0: Long)(check: FindMinCheck): Unit =
    for (k <- 3 to 6; (n, seed) <- Seq((100, 71L), (150, 72L))) {
      val g = hubOver(n, seed)
      val sn = TestGraphs.bruteNodeScores(g, k)
      assert(CsrGraph.orient(g, Orderings.byScore(sn)).degree(0) == n)
      findMinOn(g, k, sn, new Random(seed0 + 7L * k + n))(check)
    }

  /** findMin of every source against the minimum (score, canon) clique. */
  private def exactFindMin(prune: PruneMode): FindMinCheck = { (k, search, sn, valid, byRoot) =>
    for (u <- 0 until sn.length) {
      val slot = Array.fill(k + 2)(-7) // written only at [1, k+1)
      val score = search.findMin(u, valid, sn, prune, slot, 1)
      byRoot.get(u) match {
        case None =>
          assert(score == CliqueSearch.NoClique && slot.forall(_ == -7), s"k=$k u=$u")
        case Some(cs) =>
          val want = cs.map(c => (TestGraphs.cliqueScore(c, sn), c.sorted))
            .reduceLeft { (a, b) =>
              if (b._1 < a._1 || (b._1 == a._1 && CliqueSearch.compareCanon(b._2, a._2) < 0)) b else a
            }
          assert(score == want._1 && slot.slice(1, k + 1).toSeq == want._2.toSeq, s"k=$k u=$u")
          assert(slot(0) == -7 && slot(k + 1) == -7, s"k=$k u=$u wrote outside its slot")
      }
    }
  }

  /** findMin (`Paper`) of every source against the minimum score. */
  private val paperFindMin: FindMinCheck = { (k, search, sn, valid, byRoot) =>
    val slots = new Array[Int](sn.length * k)
    for (u <- 0 until sn.length) {
      val score = search.findMin(u, valid, sn, PruneMode.Paper, slots, u * k)
      byRoot.get(u) match {
        case None => assert(score == CliqueSearch.NoClique, s"k=$k u=$u")
        case Some(cs) =>
          val minScore = cs.map(TestGraphs.cliqueScore(_, sn)).min
          assert(score == minScore, s"k=$k u=$u")
          val c = slots.slice(u * k, u * k + k)
          assert(cs.exists(_.sorted.sameElements(c)), s"k=$k u=$u: slot holds no valid clique rooted at u")
          assert(TestGraphs.cliqueScore(c, sn) == minScore, s"k=$k u=$u")
      }
    }
  }

  for (prune <- Seq(PruneMode.NoPrune, PruneMode.Strict)) {
    test(s"findMin finds the true minimum-(score,canon) clique per source [$prune]") {
      findMinCases(400L)(exactFindMin(prune))
    }

    test(s"findMin finds the true minimum-(score,canon) clique on sources of out-degree over 64 and over 128 [$prune]") {
      findMinHubCases(600L)(exactFindMin(prune))
    }
  }

  test("findMin Paper prune mode still returns a minimum-score clique") {
    findMinCases(500L)(paperFindMin)
  }

  test("findMin Paper prune mode returns a minimum-score clique on sources of out-degree over 64 and over 128") {
    findMinHubCases(700L)(paperFindMin)
  }

  test("listAll is flat and canonical, with length τ") {
    for (k <- 3 to 5; seed <- 0 until 3) {
      val g = TestGraphs.randomGraph(20, 0.5, 900L + 10 * k + seed)
      val dag = CsrGraph.orient(g, Orderings.byDegree(g))
      val listed = CliqueSearch.listAll(dag, k)
      assert(listed.k == k && listed.nodes.length == k * listed.length)
      assert(listed.length.toLong == TestGraphs.tau(dag, k))
      val cs = TestGraphs.grouped(listed).map(_.toSeq)
      assert(cs.forall(c => c.zip(c.tail).forall { case (a, b) => a < b }), "non-canonical clique")
      assert(TestGraphs.strictlyLex(listed), "not strictly lex-increasing")
      assert(cs.indices.forall(i => listed(i).toSeq == cs(i)))
      for (rank <- Seq(Orderings.byId(g.n), Orderings.byScore(TestGraphs.nodeScores(g, k)),
                       Array.tabulate(g.n)(u => g.n - 1 - u)))
        assert(CliqueSearch.listAll(CsrGraph.orient(g, rank), k).nodes.toSeq == listed.nodes.toSeq, s"k=$k seed=$seed")
    }
  }

  test("listAll of over 8192 cliques equals forEachFrom's cliques in source order") {
    val g = GraphGen.community(900, 7000, 14, 0.85, seed = 61L).toCsr
    val dag = CsrGraph.orient(g, Orderings.byDegree(g))
    for (k <- 3 to 4) {
      val search = new CliqueSearch(CsrGraph.upward(dag), k)
      val expected = ArrayBuffer.empty[Int]
      for (u <- 0 until g.n) search.forEachFrom(u, null)(c => { expected ++= c.sorted; false })
      val listed = CliqueSearch.listAll(dag, k)
      assert(listed.length > 2 * 4096, s"k=$k")
      assert(listed.nodes.toSeq == expected.toSeq, s"k=$k")
    }
  }

  /** Graphs for the parallel listing: n below 64 and n not a multiple of
    * 64; a middle block of isolated nodes, which roots no clique; no
    * clique at all (a path, and no node); and a community graph with
    * ragged blocks.
    */
  private def listingCases(k: Int): Seq[CsrGraph] = {
    val random = for (seed <- 0 until 4) yield TestGraphs.randomGraph(20 + 43 * seed, 0.5 - 0.1 * seed, 5200L + 10 * k + seed)
    val dense = TestGraphs.randomGraph(64, 0.6, 5300L + k)
    def spread(u: Int) = if (u < 32) u else u + 136 // ids 32..167 isolated: block 1 roots nothing
    val gapped = TestGraphs.fromEdges(200, for (u <- 0 until dense.n; v <- dense.neighborsOf(u) if u < v)
      yield (spread(u), spread(v)))
    random ++ Seq(gapped, TestGraphs.path(70), TestGraphs.fromEdges(0, Nil),
                  GraphGen.community(700, 5000, 14, 0.85, seed = 63L).toCsr)
  }

  for (k <- 3 to 6) {
    test(s"listAll on 1, 2, 4 and 7 workers equals forEachFrom's sequence, k=$k") {
      for (g <- listingCases(k); rank <- Seq(Orderings.byId(g.n), Orderings.byDegree(g))) {
        val dag = CsrGraph.orient(g, rank)
        val search = new CliqueSearch(CsrGraph.upward(dag), k)
        val expected = ArrayBuffer.empty[Int]
        for (u <- 0 until g.n) search.forEachFrom(u, null)(c => { expected ++= c; false })
        for (workers <- Seq(1, 2, 4, 7))
          assert(java.util.Arrays.equals(CliqueSearch.listAll(dag, k, workers).nodes, expected.toArray),
                 s"n=${g.n} workers=$workers")
      }
    }

    test(s"per-source rooted counts sum to the total of the per-node counts, k=$k") {
      for (g <- listingCases(k); rank <- Seq(Orderings.byId(g.n), Orderings.byDegree(g))) {
        val dag = CsrGraph.orient(g, rank)
        val tau = NodeScores.totalCliques(CliqueSearch.countPerNode(dag, k), k)
        for (d <- Seq(dag, CsrGraph.upward(dag))) {
          val search = new CliqueSearch(d, k)
          assert((0 until g.n).map(search.rootedCount).sum == tau, s"n=${g.n}")
        }
      }
    }
  }

  test("GC's listing and selection allocate the clique array, one order and O(n + m) on the calling thread") {
    val k = 4
    val g = GraphGen.community(3000, 30000, 24, 0.85, seed = 64L).toCsr
    val dag = CsrGraph.orient(g, Orderings.byId(g.n))
    val sn = CliqueSearch.countPerNode(dag, k)
    CliqueScoreGreedy.select(g.n, k, CliqueSearch.listAll(dag, k, workers = 1), sn) // loads the classes
    val (listing, listed) = TestGraphs.allocatedBy(CliqueSearch.listAll(dag, k, workers = 1))
    val (selection, s) = TestGraphs.allocatedBy(CliqueScoreGreedy.select(g.n, k, listed, sn))
    val bytes = listing + selection
    val tau = listed.length.toLong
    assert(tau >= 100000 && s.cliques.nonEmpty)
    val maxScore = TestGraphs.grouped(listed).map(TestGraphs.cliqueScore(_, sn)).max
    val orders = if (maxScore >= (1L << 16)) 2 else 1
    // 64 bytes per node or edge (2.1 MB here, about half of it used) cover
    // the upward DAG, the two passes' searches, the block offsets, the used
    // bitmap, S and the 2^16-bucket count array; a copy of the cliques
    // (8 MB), a τ-long score array (4 MB) or a second order (2 MB) would not fit
    val bound = 4L * k * tau + 4L * tau * orders + 64L * (g.n + g.undirectedEdgeCount)
    assert(bytes < bound, s"allocated $listing + $selection bytes, bound $bound, tau=$tau orders=$orders")
  }

  test("size check: τ·k over Int.MaxValue fails, naming τ and k") {
    val maxTau = Int.MaxValue / 3
    Cliques.checkSize(maxTau.toLong, 3)
    val e = intercept[IllegalStateException](Cliques.checkSize(maxTau + 1L, 3))
    assert(e.getMessage.contains(s"${maxTau + 1L} cliques") && e.getMessage.contains("k=3"))
  }
}
