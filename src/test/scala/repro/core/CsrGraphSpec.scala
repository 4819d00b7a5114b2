package repro.core

import org.scalatest.funsuite.AnyFunSuite

class CsrGraphSpec extends AnyFunSuite {

  test("empty graph") {
    val g = CsrGraph.fromUndirectedEdges(5, Array.empty, Array.empty)
    assert(g.n == 5)
    assert(g.undirectedEdgeCount == 0)
    (0 until 5).foreach(u => assert(g.degree(u) == 0))
  }

  test("single edge, both directions present") {
    val g = TestGraphs.fromEdges(3, Seq((0, 2)))
    assert(g.hasEdge(0, 2) && g.hasEdge(2, 0))
    assert(!g.hasEdge(0, 1) && !g.hasEdge(1, 2))
    assert(g.degree(0) == 1 && g.degree(1) == 0 && g.degree(2) == 1)
  }

  test("self-loops are dropped") {
    val g = CsrGraph.fromUndirectedEdges(3, Array(0, 1, 2), Array(0, 2, 2))
    assert(g.undirectedEdgeCount == 1)
    assert(!g.hasEdge(0, 0) && !g.hasEdge(2, 2) && g.hasEdge(1, 2))
  }

  test("duplicate and reversed edges are deduplicated") {
    val g = CsrGraph.fromUndirectedEdges(4,
      Array(0, 1, 0, 2, 3, 3), Array(1, 0, 1, 3, 2, 2))
    assert(g.undirectedEdgeCount == 2)
    assert(g.degree(0) == 1 && g.degree(1) == 1 && g.degree(2) == 1 && g.degree(3) == 1)
  }

  test("adjacency slices are sorted ascending") {
    val g = TestGraphs.fromEdges(6, Seq((5, 0), (5, 3), (5, 1), (5, 4), (5, 2)))
    assert(g.neighborsOf(5).toSeq == Seq(0, 1, 2, 3, 4))
    // a random graph from a shuffled edge list, with reversed and duplicated edges
    val rnd = new scala.util.Random(11)
    val n = 60
    val edges = for (u <- 0 until n; v <- u + 1 until n if rnd.nextDouble() < 0.2) yield (u, v)
    val messy = rnd.shuffle(edges ++ edges.map(_.swap) ++ edges.filter(_ => rnd.nextBoolean()))
    val h = CsrGraph.fromUndirectedEdges(n, messy.map(_._1).toArray, messy.map(_._2).toArray)
    for (u <- 0 until n) {
      val row = h.neighborsOf(u).toSeq
      assert(row.zip(row.drop(1)).forall { case (a, b) => a < b }, s"u=$u")
      assert(row.toSet == edges.collect { case (`u`, v) => v; case (v, `u`) => v }.toSet, s"u=$u")
    }
  }

  test("fig2 graph has 9 nodes and 15 edges") {
    val g = TestGraphs.fig2
    assert(g.n == 9)
    assert(g.undirectedEdgeCount == 15)
  }

  test("maxDegree on fig2") {
    // v8 (id 7) touches v5,v6,v7,v9 => degree 4; v5 (id 4) also 4
    assert(TestGraphs.fig2.maxDegree == 4)
  }

  test("complete graph degrees") {
    val g = TestGraphs.complete(7)
    (0 until 7).foreach(u => assert(g.degree(u) == 6))
    assert(g.undirectedEdgeCount == 21)
  }

  test("orient by id: out-neighbours have smaller id") {
    val g = TestGraphs.complete(5)
    val dag = CsrGraph.orient(g, Orderings.byId(5))
    (0 until 5).foreach { u => assert(dag.neighborsOf(u).toSeq == (0 until u)) }
    assert(dag.adjSize == 10) // each undirected edge once
  }

  test("orient preserves each edge exactly once for any permutation") {
    val g = TestGraphs.fig2
    val rank = Orderings.fromKeys(g.n, u => ((u * 31) % 7).toLong)
    val dag = CsrGraph.orient(g, rank)
    assert(dag.adjSize == g.undirectedEdgeCount)
    // every DAG edge points to a smaller rank
    for (u <- 0 until g.n) dag.foreachNeighbor(u)(v => assert(rank(v) < rank(u)))
  }

  test("orient rejects a rank that is not a permutation: tied or out of range") {
    val g = TestGraphs.fig2
    val id = Orderings.byId(g.n)
    for ((rank, u) <- Seq((id.updated(4, 3), 4), (id.updated(0, g.n), 0), (id.updated(8, -1), 8))) {
      val e = intercept[IllegalArgumentException](CsrGraph.orient(g, rank))
      assert(e.getMessage.contains("not a permutation") && e.getMessage.contains(s"node $u has rank ${rank(u)}"), e.getMessage)
      // HG takes any caller's rank, and fails at the same boundary
      intercept[IllegalArgumentException](BasicFramework.run(g, 3, rank))
    }
  }

  test("upward gives orient(g, reverse id) from the by-id, by-degree, by-score and reversed-id DAGs") {
    // a hub (node 0) adjacent to all 99 other nodes, whose row spans two 64-bit words, plus random edges
    val hub = {
      val rnd = new scala.util.Random(5)
      val extra = for (u <- 1 until 100; v <- u + 1 until 100 if rnd.nextDouble() < 0.1) yield (u, v)
      TestGraphs.fromEdges(100, (1 until 100).map((0, _)) ++ extra)
    }
    for (g <- Seq(CsrGraph.fromUndirectedEdges(5, Array.empty, Array.empty), CsrGraph.fromUndirectedEdges(0, Array.empty, Array.empty),
                  TestGraphs.fig2, hub, TestGraphs.randomGraph(30, 0.3, 8))) {
      val reverse = Array.tabulate(g.n)(u => g.n - 1 - u)
      val want = CsrGraph.orient(g, reverse)
      for (rank <- Seq(Orderings.byId(g.n), Orderings.byDegree(g), Orderings.byScore(TestGraphs.nodeScores(g, 3)), reverse)) {
        val up = CsrGraph.upward(CsrGraph.orient(g, rank))
        assert(up.offsets.toSeq == want.offsets.toSeq && up.adj.toSeq == want.adj.toSeq, s"n=${g.n}")
        assert(up.adjSize.toLong == g.undirectedEdgeCount)
        for (u <- 0 until g.n) {
          val row = up.neighborsOf(u).toSeq
          assert(row == row.sorted && row.forall(_ > u), s"n=${g.n} u=$u")
          assert(row.toSet == g.neighborsOf(u).filter(_ > u).toSet, s"n=${g.n} u=$u")
        }
      }
    }
    assert(CsrGraph.upward(CsrGraph.orient(hub, Orderings.byId(hub.n))).degree(0) == 99)
  }

  test("upward rejects a graph that holds an edge twice or a self-loop") {
    val g = TestGraphs.fig2
    val e = intercept[IllegalArgumentException](CsrGraph.upward(g)) // undirected: every edge both ways
    assert(e.getMessage.contains("edge (0, 2)") && e.getMessage.contains("appears twice"), e.getMessage)
    intercept[IllegalArgumentException](CsrGraph.upward(new CsrGraph(2, Array(0, 1, 1), Array(0))))
  }

  test("hasEdge out-of-range is false") {
    val g = TestGraphs.complete(3)
    assert(!g.hasEdge(-1, 0) && !g.hasEdge(0, 3) && !g.hasEdge(5, 7))
  }

  for (seed <- 0 until 8) {
    test(s"property: CSR matches naive adjacency on random graph seed=$seed") {
      val n = 5 + seed * 3
      val g = TestGraphs.randomGraph(n, 0.3, seed.toLong)
      val naive = Array.fill(n)(scala.collection.mutable.Set.empty[Int])
      val rnd = new scala.util.Random(seed.toLong)
      for (i <- 0 until n; j <- (i + 1) until n) {
        if (rnd.nextDouble() < 0.3) { naive(i) += j; naive(j) += i }
      }
      for (u <- 0 until n) assert(g.neighborsOf(u).toSet == naive(u).toSet)
    }
  }

  for (seed <- 0 until 8) {
    test(s"property: degree orientation keeps one copy of each edge, ranks decrease seed=$seed") {
      val n = 6 + seed * 2
      val g = TestGraphs.randomGraph(n, 0.4, 100L + seed)
      val rank = Orderings.byDegree(g)
      val dag = CsrGraph.orient(g, rank)
      for (u <- 0 until n) dag.foreachNeighbor(u)(v => assert(rank(v) < rank(u)))
      assert(dag.adjSize.toLong == g.undirectedEdgeCount)
    }
  }

  test("size check: 2m over Int.MaxValue fails before allocating, naming n and m") {
    val maxM = Int.MaxValue / 2
    CsrGraph.checkSize(7, maxM.toLong) // 2m = Int.MaxValue - 1 fits
    val e = intercept[IllegalArgumentException](CsrGraph.checkSize(7, maxM + 1L))
    assert(e.getMessage.contains("n=7") && e.getMessage.contains(s"m=${maxM + 1L}"))
  }
}
