package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ValidationSpec extends AnyFunSuite {

  private val g = TestGraphs.fig2

  test("validate accepts a correct disjoint set") {
    val r = DisjointResult(3, Vector(Array(0, 2, 5), Array(6, 7, 8)))
    assert(Validation.validate(g, r).isEmpty)
    Validation.ensureValid(g, r, "fig2 k=3 LP")
  }

  test("validate rejects wrong clique size") {
    val r = DisjointResult(3, Vector(Array(0, 2)))
    assert(Validation.validate(g, r).exists(_.contains("2 nodes")))
  }

  test("validate rejects duplicate nodes inside a clique") {
    val r = DisjointResult(3, Vector(Array(0, 0, 2)))
    assert(Validation.validate(g, r).exists(_.contains("duplicate")))
  }

  test("validate rejects a non-clique") {
    val r = DisjointResult(3, Vector(Array(0, 1, 2))) // v1-v2 not an edge
    assert(Validation.validate(g, r).exists(_.contains("missing edge")))
  }

  test("validate rejects a node outside [0, n)") {
    for (x <- Seq(-1, g.n)) {
      val r = DisjointResult(3, Vector(Array(0, 2, x)))
      assert(Validation.validate(g, r).exists(_.contains(s"node $x is outside [0, ${g.n})")), s"node $x")
    }
  }

  test("validate rejects overlapping cliques") {
    val r = DisjointResult(3, Vector(Array(0, 2, 5), Array(2, 4, 5)))
    assert(Validation.validate(g, r).exists(_.contains("two cliques")))
    val e = intercept[IllegalStateException](Validation.ensureValid(g, r, "fig2 k=3 LP"))
    assert(e.getMessage == s"fig2 k=3 LP: invalid S: ${Validation.validate(g, r).get}")
  }

  test("isMaximal detects a non-maximal set") {
    val r = DisjointResult(3, Vector(Array(0, 2, 5))) // (6,7,8) still free
    assert(Validation.validate(g, r).isEmpty)
    assert(!Validation.isMaximal(g, r))
  }

  test("isMaximal accepts S2 of Example 1 (the maximum set)") {
    val r = DisjointResult(3, Vector(Array(0, 2, 5), Array(4, 6, 7), Array(1, 3, 8)))
    assert(Validation.validate(g, r).isEmpty)
    assert(Validation.isMaximal(g, r))
  }

  test("empty result is maximal iff the graph has no k-clique") {
    assert(Validation.isMaximal(TestGraphs.cycle(8), DisjointResult(3, Vector.empty)))
    assert(!Validation.isMaximal(g, DisjointResult(3, Vector.empty)))
  }

  test("size counts the cliques") {
    val r = DisjointResult(3, Vector(Array(0, 2, 5), Array(6, 7, 8)))
    assert(r.size == 2)
  }
}
