package repro.dynamic

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.collection.mutable
import scala.util.Random

class DynamicPackingSpec extends AnyFunSuite {

  /** Algorithm 5 by brute force: the k-subsets of B = C ∪ N_F(C) that are
    * cliques of the live graph, other than C, with at least one node of
    * C and at least one free node.
    */
  private def bruteCandidates(dp: DynamicPacking, cid: Int): Set[Vector[Int]] = {
    val c = dp.cliques(cid)
    val b = mutable.SortedSet.empty[Int] ++ c
    for (u <- c; v <- dp.g.neighbours(u)) if (dp.cliqueOf(v) == -1) b += v
    val pool = b.toVector
    def grow(chosen: List[Int], from: Int, left: Int): Iterator[List[Int]] =
      if (left == 0) Iterator.single(chosen)
      else (from until pool.length).iterator
        .filter(i => chosen.forall(dp.g.hasEdge(_, pool(i))))
        .flatMap(i => grow(pool(i) :: chosen, i + 1, left - 1))
    grow(Nil, 0, dp.k).map(_.reverse.toVector)
      .filter(q => q.exists(dp.cliqueOf(_) == cid) && q.exists(dp.cliqueOf(_) == -1)).toSet
  }

  /** Index parity: incremental candidate index == from-scratch Alg. 5
    * (`candidatesFor`), entry by entry and in the same order, == brute
    * force, with no empty sets. Each host's entries rise strictly in lex
    * order, as TrySwap reads them unsorted, and the `candidates` view
    * shows the same sets.
    */
  private def assertIndexParity(dp: DynamicPacking, ctx: String): Unit = {
    for (cid <- dp.cliques.keys) {
      val stored = dp.index.getOrElse(cid, Array.empty[Array[Int]])
      for (i <- 1 until stored.length)
        assert(CliqueSearch.compareCanon(stored(i - 1), stored(i)) < 0,
          s"$ctx: host $cid entries ${stored(i - 1).mkString(",")} and ${stored(i).mkString(",")} are not in strict lex order")
      val incr = stored.toVector.map(_.toVector)
      val scratch = dp.candidatesFor(cid).toVector.map(_.toVector)
      assert(incr == scratch,
        s"$ctx: index parity broken for clique $cid:\n incr=$incr\n scratch=$scratch")
      assert(scratch.toSet == bruteCandidates(dp, cid), s"$ctx: candidatesFor($cid) differs from brute force")
      assert(dp.candidates.get(cid) == Option.when(incr.nonEmpty)(incr.toSet), s"$ctx: view of host $cid")
    }
    // no stale entries for removed cliques
    for (cid <- dp.index.keys) assert(dp.cliques.contains(cid), s"$ctx: stale host $cid")
    for ((cid, set) <- dp.index) assert(set.nonEmpty, s"$ctx: empty set kept for host $cid")
    assert(dp.candidates.size == dp.index.size, s"$ctx: view size")
  }

  /** S validity: every clique real & pairwise disjoint in the live graph. */
  private def assertValid(dp: DynamicPacking, ctx: String): Unit = {
    val res = dp.result
    val err = Validation.validate(dp.g.toCsr, res)
    assert(err.isEmpty, s"$ctx: ${err.getOrElse("")}")
    // cliqueOf is consistent
    for ((id, c) <- dp.cliques; v <- c) assert(dp.cliqueOf(v) == id, s"$ctx: cliqueOf($v)")
    val owned = dp.cliques.values.flatten.toSet
    for (v <- 0 until dp.g.n if !owned.contains(v))
      assert(dp.cliqueOf(v) == -1, s"$ctx: node $v should be free")
  }

  private def initFromStatic(g: CsrGraph, k: Int): DynamicPacking = {
    val (res, _) = Lightweight.run(g, k, TestGraphs.nodeScores(g, k), PruneMode.Paper)
    val dp = new DynamicPacking(DynamicGraph.fromCsr(g), k)
    dp.initialize(res)
    dp
  }

  // ---------------------------------------------------------- Fig. 5

  private def fig5Packing(): DynamicPacking = {
    val dp = new DynamicPacking(DynamicGraph.fromCsr(TestGraphs.fig5G1), 3)
    dp.initialize(DisjointResult(3, Vector(Array(2, 3, 4), Array(8, 9, 10))))
    dp
  }

  test("Fig 5: candidate index of G1 matches the paper") {
    val dp = fig5Packing()
    // C1=(v3,v4,v5) has the single candidate (v1,v2,v3); C2 has none.
    val hostC1 = dp.cliqueOf(2)
    val hostC2 = dp.cliqueOf(8)
    assert(dp.candidates(hostC1).toSet == Set(Vector(0, 1, 2)))
    assert(!dp.candidates.contains(hostC2))
    assert(dp.indexSize == 1)
    assertIndexParity(dp, "fig5-init")
  }

  test("Fig 5: inserting (v5,v7) triggers the paper's swap, |S| 2 → 3") {
    val dp = fig5Packing()
    dp.insertEdge(4, 6)
    assertValid(dp, "fig5-insert")
    assertIndexParity(dp, "fig5-insert")
    assert(dp.size == 3)
    assert(dp.result.cliques.map(_.toSet).toSet ==
           Set(Set(0, 1, 2), Set(4, 5, 6), Set(8, 9, 10)))
    assert(dp.swapCount == 1)
  }

  test("Fig 5: deleting (v5,v7) from G2 returns to a maximum set of G1") {
    val dp = fig5Packing()
    dp.insertEdge(4, 6)
    dp.deleteEdge(4, 6)
    assertValid(dp, "fig5-delete")
    assertIndexParity(dp, "fig5-delete")
    // paper: S = {(v1,v2,v3), (v9,v10,v11)} — maximum in G1
    assert(dp.result.cliques.map(_.toSet).toSet == Set(Set(0, 1, 2), Set(8, 9, 10)))
  }

  // ------------------------------------------------ insertion cases

  test("insert between two owned nodes of different cliques is a no-op") {
    val dp = fig5Packing()
    val before = dp.result.cliques.map(_.toSet)
    dp.insertEdge(2, 8) // v3 (in C1) — v9 (in C2)
    assert(dp.result.cliques.map(_.toSet) == before)
    assertIndexParity(dp, "owned-owned")
  }

  test("insert between two free nodes forming an all-free clique adds it directly") {
    // triangle among free nodes v6,v7,v8 (ids 5,6,7): add edges stepwise
    val dp = fig5Packing()
    dp.insertEdge(5, 7)  // v6-v8
    dp.insertEdge(6, 7)  // v7-v8: now 5-6? no — need (5,6) too
    assertValid(dp, "free-free-1")
    dp.insertEdge(5, 6)  // completes triangle (5,6,7), all free
    assertValid(dp, "free-free-2")
    assertIndexParity(dp, "free-free")
    assert(dp.result.cliques.map(_.toSet).contains(Set(5, 6, 7)))
    assert(dp.size == 3)
  }

  test("insert creating a candidate without swap opportunity leaves S unchanged") {
    val dp = fig5Packing()
    dp.insertEdge(5, 8) // v6 (free) — v9 (in C2): candidate needs a clique on B
    assertValid(dp, "cand-noswap")
    assertIndexParity(dp, "cand-noswap")
    assert(dp.size == 2)
  }

  test("insert with one owned endpoint gives its host the candidates through the edge") {
    val dp = fig5Packing()
    val hostC1 = dp.cliqueOf(2)
    dp.insertEdge(1, 3) // v2 (free) — v4 (in C1): (v2,v3,v4) joins (v1,v2,v3)
    assertValid(dp, "one-owned")
    assertIndexParity(dp, "one-owned")
    assert(dp.candidates(hostC1) == Set(Vector(0, 1, 2), Vector(1, 2, 3)))
    assert(dp.size == 2 && dp.swapCount == 0)
  }

  // ------------------------------------------------- deletion cases

  test("a removed clique hands the hosts that gained back to TrySwap in ascending id order") {
    // clique 0 is (0,1,2) and clique i is (3i,3i+1,3i+2); for i = 1..8
    // node 3i sees 0 and 1, so once clique 0 is gone host i gains the
    // candidate (0,1,3i); host 9 sees only node 2 and gains nothing
    val triangles = (0 to 9).flatMap(i => Seq((3 * i, 3 * i + 1), (3 * i, 3 * i + 2), (3 * i + 1, 3 * i + 2)))
    val spokes = (1 to 8).flatMap(i => Seq((0, 3 * i), (1, 3 * i))) :+ ((2, 27))
    val dp = new DynamicPacking(DynamicGraph.fromCsr(TestGraphs.fromEdges(30, triangles ++ spokes)), 3)
    dp.initialize(DisjointResult(3, (0 to 9).map(i => Array(3 * i, 3 * i + 1, 3 * i + 2)).toVector))
    assert(dp.indexSize == 0)
    assert(dp.removeClique(0).toSeq == (1 to 8))
    assertIndexParity(dp, "after removing clique 0")
  }

  test("delete a non-clique edge only prunes candidates") {
    // each deletion kills candidate (v1,v2,v3) of host C1, whose node v3
    // is the second endpoint, the first endpoint, and then the only
    // common neighbour of the two endpoints
    for ((u, v) <- Seq((0, 2), (2, 0), (0, 1), (1, 0))) {
      val dp = fig5Packing()
      dp.deleteEdge(u, v)
      assert(dp.indexSize == 0, s"($u,$v)")
      assert(dp.size == 2, s"($u,$v)")
      assertIndexParity(dp, s"cand-del ($u,$v)")
    }
  }

  // ----------------------------------- hosts through a changed edge

  /** Host A = (0,1,2) and host B = (3,4,5), free nodes u = 6, v = 7 and
    * 8. A sees u through 0 and v through 1, and holds the candidate
    * (0,1,8); B's node 3 is a common neighbour of u and v, and no free
    * node is, so ⟨u,v⟩ closes no all-free clique.
    */
  private def twoHosts(withUV: Boolean): DynamicPacking = {
    val edges = Seq((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
      (0, 6), (1, 7), (3, 6), (3, 7), (0, 8), (1, 8)) ++ Option.when(withUV)((6, 7))
    val dp = new DynamicPacking(DynamicGraph.fromCsr(TestGraphs.fromEdges(9, edges)), 3)
    dp.initialize(DisjointResult(3, Vector(Array(0, 1, 2), Array(3, 4, 5))))
    dp
  }

  test("insert between two free nodes: the host of a common neighbour gains, one seeing them apart does not") {
    val dp = twoHosts(withUV = false)
    val (a, b) = (dp.cliqueOf(0), dp.cliqueOf(3))
    assert(dp.candidates(a) == Set(Vector(0, 1, 8)) && !dp.candidates.contains(b))
    dp.insertEdge(6, 7)
    assert(dp.candidates(b) == Set(Vector(3, 6, 7)))
    assert(dp.candidates(a) == Set(Vector(0, 1, 8)))
    assert(dp.size == 2 && dp.swapCount == 0)
    assertIndexParity(dp, "insert (6,7)")
  }

  test("delete between two free nodes drops the candidate through it from the host of a common neighbour") {
    val dp = twoHosts(withUV = true)
    val (a, b) = (dp.cliqueOf(0), dp.cliqueOf(3))
    assert(dp.candidates(b) == Set(Vector(3, 6, 7)))
    dp.deleteEdge(7, 6)
    assert(!dp.candidates.contains(b))
    assert(dp.candidates(a) == Set(Vector(0, 1, 8)))
    assertIndexParity(dp, "delete (7,6)")
  }

  test("delete between two free nodes drops both candidates of a host owning two common neighbours") {
    // host (0,1,2); free 3 and 4 are adjacent, and 0 and 1 see both
    val edges = Seq((0, 1), (0, 2), (1, 2), (3, 4), (0, 3), (0, 4), (1, 3), (1, 4))
    val dp = new DynamicPacking(DynamicGraph.fromCsr(TestGraphs.fromEdges(5, edges)), 3)
    dp.initialize(DisjointResult(3, Vector(Array(0, 1, 2))))
    val h = dp.cliqueOf(0)
    assert(dp.candidates(h) == Set(Vector(0, 1, 3), Vector(0, 1, 4), Vector(0, 3, 4), Vector(1, 3, 4)))
    dp.deleteEdge(3, 4)
    assert(dp.candidates(h) == Set(Vector(0, 1, 3), Vector(0, 1, 4)))
    assertIndexParity(dp, "delete (3,4)")
  }

  test("delete inside a result clique frees its nodes and recovers what it can") {
    val dp = fig5Packing()
    dp.deleteEdge(2, 3) // split C1=(v3,v4,v5): recover finds (v1,v2,v3)
    assertValid(dp, "clique-del")
    assertIndexParity(dp, "clique-del")
    assert(dp.result.cliques.map(_.toSet).toSet == Set(Set(0, 1, 2), Set(8, 9, 10)))
  }

  test("delete then reinsert restores a coverable region") {
    val dp = fig5Packing()
    dp.deleteEdge(2, 3)
    dp.insertEdge(2, 3)
    assertValid(dp, "del-reinsert")
    assertIndexParity(dp, "del-reinsert")
    assert(dp.size == 2)
  }

  test("a host reaching maxCandidatesPerHost throws instead of truncating") {
    // host C = (0,1,2); node 0 sees every node of a free K_{317,317}, so
    // C has one candidate (0,x,y) per bipartite edge: 317² = 100,489
    val side = 317
    val dg = new DynamicGraph(3 + 2 * side)
    dg.addEdge(0, 1); dg.addEdge(0, 2); dg.addEdge(1, 2)
    for (x <- 3 until 3 + 2 * side) dg.addEdge(0, x)
    for (x <- 3 until 3 + side; y <- 3 + side until 3 + 2 * side) dg.addEdge(x, y)
    val dp = new DynamicPacking(dg, 3)
    assert(side * side > dp.maxCandidatesPerHost)
    intercept[IllegalStateException](dp.initialize(DisjointResult(3, Vector(Array(0, 1, 2)))))
  }

  // ------------------------------------------- randomised soak tests

  /** The index holds what it gained less what it dropped. */
  private def assertCounted(dp: DynamicPacking, ctx: String): Unit =
    assert(dp.indexSize == dp.entriesGained - dp.entriesDropped,
      s"$ctx: index size ${dp.indexSize}, gained ${dp.entriesGained}, dropped ${dp.entriesDropped}")

  private def counters(dp: DynamicPacking): Seq[Long] =
    Seq(dp.swapCount, dp.hostsRebuilt, dp.entriesGained, dp.entriesDropped)

  for (k <- 3 to 6; seed <- 0 until 4) {
    test(s"random update soak: validity + index parity + maximality, k=$k seed=$seed") {
      val n = 24
      val g = TestGraphs.randomGraph(n, 0.4, 5000L * k + seed)
      val dp = initFromStatic(g, k)
      assertValid(dp, "init")
      assertIndexParity(dp, "init")
      assertCounted(dp, "init")
      val rnd = new Random(9000L * k + seed)
      val stream = mutable.ArrayBuffer.empty[(Boolean, Int, Int)]
      def apply(p: DynamicPacking, op: (Boolean, Int, Int)): Unit =
        if (op._1) p.insertEdge(op._2, op._3) else p.deleteEdge(op._2, op._3)
      for (step <- 0 until 60) {
        val u = rnd.nextInt(n)
        val v = rnd.nextInt(n)
        if (u != v) {
          stream += ((rnd.nextBoolean(), u, v))
          apply(dp, stream.last)
          assertValid(dp, s"step $step")
          assertIndexParity(dp, s"step $step")
          assertCounted(dp, s"step $step")
          // S must stay maximal: the maintained invariant of Section V
          assert(Validation.isMaximal(dp.g.toCsr, dp.result), s"step $step not maximal")
        }
      }
      // the same stream on a fresh packing gives the same S, clique for clique
      val replay = initFromStatic(g, k)
      stream.foreach(apply(replay, _))
      assert(replay.result.cliques.map(_.toSeq) == dp.result.cliques.map(_.toSeq))
      assert(replay.swapCount == dp.swapCount)
      assert(counters(replay) == counters(dp))
    }
  }

  /** k − 2 hubs, pairwise adjacent and joined to every one of `m` other
    * nodes, which form a random bipartite graph (even ids against odd,
    * edge probability 0.1). Every k-clique is the hubs plus an edge, so
    * LP keeps one clique, and its host pool holds all m + k − 2 nodes.
    */
  private def hubbedBipartite(k: Int, m: Int, seed: Long): CsrGraph = {
    val h = k - 2
    val rnd = new Random(seed)
    val hubs = for (a <- 0 until h; b <- a + 1 until h) yield (a, b)
    val spokes = for (a <- 0 until h; x <- h until h + m) yield (a, x)
    val rest = for (x <- h until h + m; y <- x + 1 until h + m if (x + y) % 2 == 1 && rnd.nextDouble() < 0.1) yield (x, y)
    TestGraphs.fromEdges(h + m, hubs ++ spokes ++ rest)
  }

  for (k <- 3 to 4; m <- Seq(100, 150)) {
    test(s"update soak on host pools over ${if (m == 100) 64 else 128} nodes: validity + index parity + replay, k=$k") {
      val g = hubbedBipartite(k, m, 31L * k + m)
      val dp = initFromStatic(g, k)
      val pools = dp.cliques.values.map(c => (c.toSet ++ c.flatMap(u => g.neighborsOf(u).filter(dp.cliqueOf(_) == -1))).size)
      assert(dp.size == 1 && pools.head == m + k - 2)
      assertValid(dp, "init")
      assertIndexParity(dp, "init")
      assertCounted(dp, "init")
      val rnd = new Random(77L * k + m)
      val stream = mutable.ArrayBuffer.empty[(Boolean, Int, Int)]
      def apply(p: DynamicPacking, op: (Boolean, Int, Int)): Unit =
        if (op._1) p.insertEdge(op._2, op._3) else p.deleteEdge(op._2, op._3)
      for (step <- 0 until 40) {
        // an edge of the graph (to delete) or a random pair (to insert)
        val del = rnd.nextBoolean()
        val u = rnd.nextInt(g.n)
        val v = if (del && g.degree(u) > 0) g.neighborsOf(u)(rnd.nextInt(g.degree(u))) else rnd.nextInt(g.n)
        if (u != v) {
          stream += ((!del, u, v))
          apply(dp, stream.last)
          assertValid(dp, s"step $step")
          assertIndexParity(dp, s"step $step")
          assertCounted(dp, s"step $step")
        }
      }
      val replay = initFromStatic(g, k)
      stream.foreach(apply(replay, _))
      assert(replay.result.cliques.map(_.toSeq) == dp.result.cliques.map(_.toSeq))
      assert(replay.swapCount == dp.swapCount)
      assert(counters(replay) == counters(dp))
    }
  }

  for (k <- 3 to 4; seed <- 0 until 3) {
    test(s"dynamic quality tracks scratch rebuild, k=$k seed=$seed") {
      val n = 30
      val g = TestGraphs.randomGraph(n, 0.45, 7000L * k + seed)
      val dp = initFromStatic(g, k)
      val rnd = new Random(8000L * k + seed)
      for (_ <- 0 until 80) {
        val u = rnd.nextInt(n); val v = rnd.nextInt(n)
        if (u != v) { if (rnd.nextBoolean()) dp.insertEdge(u, v) else dp.deleteEdge(u, v) }
      }
      val csr = dp.g.toCsr
      val (scratch, _) = Lightweight.run(csr, k, TestGraphs.nodeScores(csr, k), PruneMode.Paper)
      assert(dp.size >= scratch.size - 2,
        s"dynamic=${dp.size} scratch=${scratch.size}")
    }
  }

  test("bestDisjointSubset: exact on small candidate lists") {
    val cands = Array(
      Array(1, 2, 3), Array(3, 4, 5), Array(4, 5, 6), Array(7, 8, 9))
    val best = DynamicPacking.bestDisjointSubset(cands, Array(3, 6, 9))
    assert(best.length == 3) // {1,2,3},{4,5,6},{7,8,9}
    assert(best.map(_.toVector).toSet == Set(Vector(1, 2, 3), Vector(4, 5, 6), Vector(7, 8, 9)))
  }

  test("bestDisjointSubset: empty and singleton inputs") {
    assert(DynamicPacking.bestDisjointSubset(Array.empty, Array(1, 2, 3)).isEmpty)
    assert(DynamicPacking.bestDisjointSubset(Array(Array(1, 2, 3)), Array(3, 4, 5)).length == 1)
  }

  /** Brute force: the first of the maximum-size disjoint subsets (at most
    * `k` members) in lexicographic order of their sorted position lists.
    */
  private def bruteBestDisjoint(cs: IndexedSeq[Vector[Int]], k: Int): Vector[Int] = {
    var best = Vector.empty[Int]
    def grow(picked: Vector[Int], from: Int): Unit = {
      if (picked.size > best.size) best = picked
      if (picked.size < k)
        for (j <- from until cs.length if picked.forall(i => cs(i).intersect(cs(j)).isEmpty))
          grow(picked :+ j, j + 1)
    }
    grow(Vector.empty, 0)
    best
  }

  for (k <- 3 to 5) {
    test(s"bestDisjointSubset: exact vs brute force on 21-60 candidates meeting a host, k=$k") {
      val rnd = new Random(600L + k)
      for (_ <- 0 until 40) {
        val host = rnd.shuffle((0 until 3 * k).toVector).take(k).sorted
        val others = (0 until 3 * k).filterNot(host.contains)
        val target = 21 + rnd.nextInt(40)
        val cands = mutable.LinkedHashSet.empty[Vector[Int]]
        while (cands.size < target) {
          val inHost = 1 + rnd.nextInt(k - 1)
          cands += (rnd.shuffle(host).take(inHost) ++ rnd.shuffle(others).take(k - inHost)).sorted
        }
        val cs = cands.toIndexedSeq
        val got = DynamicPacking.bestDisjointSubset(cs.map(_.toArray).toArray, host.toArray)
        assert(got.map(_.toVector).toSeq == bruteBestDisjoint(cs, k).map(cs), s"host=$host cands=$cs")
      }
    }
  }

  // ------------------------------------------------ boundary checks

  test("initialize rejects a clique without k distinct nodes") {
    val g = DynamicGraph.fromCsr(TestGraphs.fig5G1)
    intercept[IllegalArgumentException](
      new DynamicPacking(g, 3).initialize(DisjointResult(3, Vector(Array(2, 3, 3)))))
    intercept[IllegalArgumentException](
      new DynamicPacking(g, 3).initialize(DisjointResult(3, Vector(Array(2, 3)))))
  }

  test("initialize rejects a node out of range or already owned") {
    val g = DynamicGraph.fromCsr(TestGraphs.fig5G1)
    intercept[IllegalArgumentException](
      new DynamicPacking(g, 3).initialize(DisjointResult(3, Vector(Array(2, 3, g.n)))))
    intercept[IllegalArgumentException](
      new DynamicPacking(g, 3).initialize(DisjointResult(3, Vector(Array(0, 1, 2), Array(2, 3, 4)))))
  }

  test("initialize rejects nodes that are not pairwise adjacent") {
    val dp = new DynamicPacking(DynamicGraph.fromCsr(TestGraphs.fig5G1), 3)
    assert(!dp.g.hasEdge(0, 8))
    intercept[IllegalArgumentException](dp.initialize(DisjointResult(3, Vector(Array(0, 1, 8)))))
  }

  test("insertEdge and deleteEdge reject node ids outside [0, n)") {
    val dp = fig5Packing()
    for ((u, v) <- Seq((-1, 0), (0, dp.g.n))) {
      intercept[IllegalArgumentException](dp.insertEdge(u, v))
      intercept[IllegalArgumentException](dp.deleteEdge(u, v))
    }
    assertIndexParity(dp, "after rejected updates")
  }
}
