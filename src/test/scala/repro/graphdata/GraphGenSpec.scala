package repro.graphdata

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CsrGraph, Orderings, TestGraphs}

class GraphGenSpec extends AnyFunSuite {

  test("erdosRenyiExactM produces exactly m distinct edges") {
    val e = GraphGen.erdosRenyiExactM(100, 500, seed = 1)
    assert(e.m == 500)
    val g = e.toCsr
    assert(g.undirectedEdgeCount == 500)
  }

  test("erdosRenyiExactM is deterministic in the seed") {
    val a = GraphGen.erdosRenyiExactM(60, 300, seed = 9)
    val b = GraphGen.erdosRenyiExactM(60, 300, seed = 9)
    assert(a.src.toSeq == b.src.toSeq && a.dst.toSeq == b.dst.toSeq)
    val c = GraphGen.erdosRenyiExactM(60, 300, seed = 10)
    assert(a.src.toSeq != c.src.toSeq || a.dst.toSeq != c.dst.toSeq)
  }

  test("erdosRenyiExactM rejects impossible m") {
    intercept[IllegalArgumentException] {
      GraphGen.erdosRenyiExactM(4, 10, seed = 0)
    }
  }

  for (deg <- Seq(4, 8, 12)) {
    test(s"wattsStrogatz preserves edge count of the ring lattice, deg=$deg") {
      val e = GraphGen.wattsStrogatz(200, deg, 0.1, seed = 3)
      val g = e.toCsr
      // rewiring moves edges but never creates or destroys them
      assert(g.undirectedEdgeCount == 200L * deg / 2)
      assert((0 until g.n).map(g.degree).sum == 200 * deg)
    }
  }

  test("wattsStrogatz beta=0 is the pure ring lattice (high clustering)") {
    val g = GraphGen.wattsStrogatz(50, 6, 0.0, seed = 0).toCsr
    for (u <- 0 until 50; j <- 1 to 3) {
      assert(g.hasEdge(u, (u + j) % 50))
    }
    // a deg-6 ring lattice is rich in triangles
    val dag = CsrGraph.orient(g, Orderings.byId(50))
    assert(TestGraphs.tau(dag, 3) > 0)
  }

  test("wattsStrogatz is deterministic in the seed") {
    val a = GraphGen.wattsStrogatz(80, 8, 0.3, seed = 11)
    val b = GraphGen.wattsStrogatz(80, 8, 0.3, seed = 11)
    assert(a.src.toSeq == b.src.toSeq && a.dst.toSeq == b.dst.toSeq)
  }

  test("community hits the target edge count and plants k-cliques") {
    val e = GraphGen.community(300, 2000, 8, 0.85, seed = 21)
    assert(math.abs(e.m - 2000) <= 0)
    val g = e.toCsr
    val dag = CsrGraph.orient(g, Orderings.byDegree(g))
    // dense communities of size 8 must contain plenty of 3- and 4-cliques
    assert(TestGraphs.tau(dag, 3) > 100)
    assert(TestGraphs.tau(dag, 4) > 50)
  }

  test("community rejects a target over n(n-1)/2 edges") {
    val e = intercept[IllegalArgumentException](GraphGen.community(10, 46, 5, 0.5, seed = 0))
    assert(e.getMessage.contains("targetM=46") && e.getMessage.contains("max 45"))
    assert(GraphGen.community(10, 45, 5, 0.5, seed = 0).m == 45)
  }

  test("community graphs are deterministic in the seed") {
    val a = GraphGen.community(200, 1500, 10, 0.8, seed = 5)
    val b = GraphGen.community(200, 1500, 10, 0.8, seed = 5)
    assert(a.src.toSeq == b.src.toSeq && a.dst.toSeq == b.dst.toSeq)
  }

  test("dataset registry: all specs build and roughly match declared sizes") {
    // keep to the small end in unit tests; big stand-ins are bench-only
    for (name <- Seq("FTB", "HST", "Swallow", "Tortoise", "Lizard", "Voles")) {
      val spec = Datasets.byName(name)
      val g = spec.csr
      assert(g.n > 0 && g.undirectedEdgeCount > 0)
      assert(g.n <= spec.paperN)
    }
  }

  test("FTB stand-in has the paper's exact node and edge counts") {
    val g = Datasets.byName("FTB").csr
    assert(g.n == 115)
    assert(g.undirectedEdgeCount == 613)
  }

  test("small Table IV stand-ins have the paper's exact (n, m)") {
    for ((name, n, m) <- Seq(("Swallow", 17, 53), ("Tortoise", 35, 104),
                             ("Lizard", 60, 318), ("Voles", 181, 515))) {
      val g = Datasets.byName(name).csr
      assert(g.n == n, name)
      assert(g.undirectedEdgeCount == m.toLong, name)
    }
  }
}
