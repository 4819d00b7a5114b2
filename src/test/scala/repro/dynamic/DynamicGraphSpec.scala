package repro.dynamic

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CsrGraph, TestGraphs}
import scala.util.Random

class DynamicGraphSpec extends AnyFunSuite {

  private def sameCsr(a: CsrGraph, b: CsrGraph): Boolean =
    a.n == b.n && a.offsets.sameElements(b.offsets) && a.adj.sameElements(b.adj)

  /** `g` against the reference edge set `ref` of pairs (lo, hi), lo < hi. */
  private def check(g: DynamicGraph, ref: Set[(Int, Int)], at: String): Unit = {
    for (u <- 0 until g.n) {
      assert(!g.hasEdge(u, u), at)
      for (v <- 0 until g.n if v != u)
        assert(g.hasEdge(u, v) == ref((u min v, u max v)), s"$at ($u,$v)")
      val expected = (0 until g.n).filter(v => v != u && ref((u min v, u max v)))
      assert(g.neighbours(u).toSeq == expected, s"$at row $u")
    }
    assert(g.edgeCount == ref.size, at)
    val (src, dst) = ref.toArray.unzip
    assert(sameCsr(g.toCsr, CsrGraph.fromUndirectedEdges(g.n, src, dst)), at)
  }

  for (seed <- 0 until 4) {
    test(s"random add/remove stream with self-loops and repeats matches a reference edge set, seed=$seed") {
      val n = 6 + 3 * seed
      val rnd = new Random(500L + seed)
      val g = new DynamicGraph(n)
      var ref = Set.empty[(Int, Int)]
      for (step <- 0 until 300) {
        val u = rnd.nextInt(n)
        val v = rnd.nextInt(n)
        val e = (u min v, u max v)
        val (rowU, rowV) = (g.neighbours(u), g.neighbours(v))
        val (copyU, copyV) = (rowU.clone(), rowV.clone())
        val at = s"step $step"
        if (rnd.nextInt(3) > 0) {
          assert(g.addEdge(u, v) == (u != v && !ref(e)), s"$at add ($u,$v)")
          if (u != v) ref += e
        } else {
          assert(g.removeEdge(u, v) == ref(e), s"$at remove ($u,$v)")
          ref -= e
        }
        // an update replaces rows; the ones handed out before stay as they were
        assert(rowU.sameElements(copyU) && rowV.sameElements(copyV), at)
        check(g, ref, at)
      }
    }
  }

  test("fromCsr(g).toCsr == g, with the empty graph and isolated nodes") {
    val graphs = Seq(
      TestGraphs.fromEdges(0, Nil),
      TestGraphs.fromEdges(5, Nil),
      TestGraphs.fromEdges(9, Seq((0, 8), (2, 3), (3, 8))), // 1, 4..7 isolated
      TestGraphs.fig2,
      TestGraphs.randomGraph(40, 0.2, 77L))
    for (g <- graphs) {
      val d = DynamicGraph.fromCsr(g)
      assert(sameCsr(d.toCsr, g), s"n=${g.n}")
      assert(d.edgeCount == g.undirectedEdgeCount, s"n=${g.n}")
      for (u <- 0 until g.n) assert(d.neighbours(u).sameElements(g.neighborsOf(u)), s"n=${g.n} row $u")
    }
  }
}
