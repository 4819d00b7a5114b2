package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class OrderingsSpec extends AnyFunSuite {

  /** Reference: rank by a comparison sort on (key, id) tuples. */
  private def referenceRank(keys: Array[Long]): Array[Int] = {
    val sorted = Array.range(0, keys.length).sortBy(u => (keys(u), u))
    val rank = new Array[Int](keys.length)
    for (i <- sorted.indices) rank(sorted(i)) = i
    rank
  }

  private def assertMatchesReference(keys: Array[Long]): Unit = {
    val want = referenceRank(keys)
    assert(Orderings.byScore(keys).sameElements(want))
    val order = Orderings.ascending(keys)
    assert(order.indices.forall(i => want(order(i)) == i))
  }

  test("ranks equal the tuple-sort reference on random keys with many ties") {
    for (seed <- 0 until 8) {
      val rnd = new Random(seed)
      assertMatchesReference(Array.fill(500 + 100 * seed)(rnd.nextInt(1 + 3 * seed).toLong))
    }
  }

  test("all-zero keys give the identity ordering") {
    assert(Orderings.byScore(new Array[Long](300)).sameElements(0 until 300))
  }

  test("ranks equal the reference on keys of 1 to 4 digits up to Long.MaxValue") {
    // a few values per 16-bit digit, so ties and carries cross digit boundaries
    val digitValues = Array(0L, 1L, 2L, 0x7fffL, 0xffffL)
    for (digits <- 1 to 4; seed <- 0 until 4) {
      val rnd = new Random(100L * digits + seed)
      val keys = Array.fill(2000) {
        (0 until digits).foldLeft(0L)((x, d) => x | (digitValues(rnd.nextInt(digitValues.length)) << (16 * d)))
      }
      keys(rnd.nextInt(keys.length)) = if (digits == 4) Long.MaxValue else (1L << (16 * digits)) - 1
      for (i <- keys.indices) keys(i) &= Long.MaxValue
      assertMatchesReference(keys)
    }
  }

  test("ranks equal the reference for n = 0, 1 and above 65 536") {
    assertMatchesReference(Array.empty[Long])
    assertMatchesReference(Array(0L))
    assertMatchesReference(Array(Long.MaxValue))
    val rnd = new Random(7)
    assertMatchesReference(Array.fill(70000)(rnd.nextInt(100000).toLong))
    assertMatchesReference(Array.fill(70000)(rnd.nextInt(4).toLong))
  }

  test("a negative key is rejected") {
    for (keys <- Seq(Array(3L, -1L, 2L), Array(Long.MinValue))) {
      val e = intercept[IllegalArgumentException](Orderings.ascending(keys))
      assert(e.getMessage.contains("< 0"), e.getMessage)
      intercept[IllegalArgumentException](Orderings.byScore(keys))
    }
  }

  test("byDegree and byScore are permutations that orient accepts") {
    for (seed <- 0 until 4) {
      val g = TestGraphs.randomGraph(40 + 10 * seed, 0.3, 900L + seed)
      val byDegree = Orderings.byDegree(g)
      assert(byDegree.sameElements(referenceRank(Array.tabulate(g.n)(g.degree(_).toLong))))
      for (rank <- Seq(byDegree, Orderings.byScore(TestGraphs.nodeScores(g, 3)))) {
        assert(rank.sorted.sameElements(0 until g.n))
        assert(CsrGraph.orient(g, rank).adjSize == g.undirectedEdgeCount)
      }
    }
  }
}
