package repro.core

import java.util.Arrays

/** Immutable compressed-sparse-row adjacency over nodes `0 until n`.
  *
  * For an undirected graph every edge appears in both directions and
  * `adj` is sorted ascending within each node's slice, so membership is
  * a binary search. The same class also represents the DAG orientation
  * produced by [[CsrGraph.orient]] (out-neighbours only).
  *
  * Serializable so it can be broadcast to Spark executors for the
  * distributed k-clique counting in [[NodeScores]].
  */
final class CsrGraph(val n: Int, val offsets: Array[Int], val adj: Array[Int])
    extends Serializable {
  require(offsets.length == n + 1, s"offsets must have n+1 entries, got ${offsets.length} for n=$n")

  /** Number of adjacency entries (2m for undirected, m for a DAG). */
  def adjSize: Int = adj.length

  /** Number of undirected edges, assuming a symmetrised graph. */
  def undirectedEdgeCount: Long = adj.length / 2L

  def degree(u: Int): Int = offsets(u + 1) - offsets(u)

  def maxDegree: Int = {
    var best = 0
    var u = 0
    while (u < n) { val d = degree(u); if (d > best) best = d; u += 1 }
    best
  }

  def neighborsOf(u: Int): Array[Int] =
    Arrays.copyOfRange(adj, offsets(u), offsets(u + 1))

  def foreachNeighbor(u: Int)(f: Int => Unit): Unit = {
    var o = offsets(u)
    val end = offsets(u + 1)
    while (o < end) { f(adj(o)); o += 1 }
  }

  /** Edge membership via binary search in the sorted adjacency slice. */
  def hasEdge(u: Int, v: Int): Boolean = {
    if (u < 0 || u >= n || v < 0 || v >= n) return false
    val lo = offsets(u); val hi = offsets(u + 1)
    Arrays.binarySearch(adj, lo, hi, v) >= 0
  }
}

object CsrGraph {

  /** Build a symmetric simple graph from a (possibly messy) edge list:
    * self-loops dropped, duplicates and both orientations deduplicated.
    */
  def fromUndirectedEdges(n: Int, src: Array[Int], dst: Array[Int]): CsrGraph = {
    require(src.length == dst.length, "src and dst must be the same length")
    // Encode each surviving undirected edge once as (min << 32) | max.
    val enc = new Array[Long](src.length)
    var cnt = 0
    var i = 0
    while (i < src.length) {
      val a = src(i); val b = dst(i)
      require(a >= 0 && a < n && b >= 0 && b < n, s"edge ($a,$b) out of range for n=$n")
      if (a != b) {
        val lo = math.min(a, b); val hi = math.max(a, b)
        enc(cnt) = (lo.toLong << 32) | (hi.toLong & 0xffffffffL)
        cnt += 1
      }
      i += 1
    }
    val packed = Arrays.copyOf(enc, cnt)
    Arrays.sort(packed)
    var m = 0
    i = 0
    while (i < packed.length) {
      if (m == 0 || packed(m - 1) != packed(i)) { packed(m) = packed(i); m += 1 }
      i += 1
    }
    checkSize(n, m)
    // Edges in (lo, hi) order give row u its lower neighbours ascending,
    // then its higher ones ascending: every row comes out sorted.
    group(n) { f =>
      var e = 0
      while (e < m) {
        val lo = (packed(e) >>> 32).toInt; val hi = (packed(e) & 0xffffffffL).toInt
        f(lo, hi); f(hi, lo)
        e += 1
      }
    }
  }

  /** Throws IllegalArgumentException when m undirected edges do not fit
    * the Int-indexed CSR: its 2m adjacency entries and offsets are Ints.
    */
  def checkSize(n: Int, m: Long): Unit =
    if (2 * m > Int.MaxValue)
      throw new IllegalArgumentException(
        s"n=$n, m=$m: 2m = ${2 * m} adjacency entries overflow the Int CSR")

  /** Orient an undirected graph into a DAG by a rank array (the total
    * ordering η of the paper): edge u→v is kept iff rank(v) < rank(u),
    * i.e. out-neighbours of u are exactly the nodes with smaller η.
    * Out-adjacency stays sorted by node id. A rank that is not a
    * permutation of `0 until n` (a tie would drop its edge) is rejected.
    */
  def orient(g: CsrGraph, rank: Array[Int]): CsrGraph = {
    require(rank.length == g.n, "rank must cover every node")
    val taken = new Array[Boolean](g.n)
    var u = 0
    while (u < g.n) {
      val r = rank(u)
      require(r >= 0 && r < g.n && !taken(r), s"rank is not a permutation of 0 until ${g.n}: node $u has rank $r")
      taken(r) = true
      u += 1
    }
    group(g.n) { f =>
      for (u <- 0 until g.n) g.foreachNeighbor(u)(v => if (rank(v) < rank(u)) f(u, v))
    }
  }

  /** The same graph with every arc pointing from its lower id to its
    * higher id, rows sorted: `orient(g, rank)` with rank(u) = n − 1 − u,
    * for the graph g of which `dag` is any orientation. O(n + m): the arcs
    * are grouped by their higher end, then regrouped by their lower end
    * while the higher ends are read in ascending order, which sorts the
    * rows. A self-loop, or an edge that `dag` holds twice (in either
    * direction), is rejected.
    */
  def upward(dag: CsrGraph): CsrGraph = {
    val down = group(dag.n) { f =>
      for (u <- 0 until dag.n) dag.foreachNeighbor(u)(v => f(math.max(u, v), math.min(u, v)))
    }
    val up = group(dag.n) { f =>
      for (hi <- 0 until dag.n) down.foreachNeighbor(hi)(lo => f(lo, hi))
    }
    for (u <- 0 until up.n; o <- up.offsets(u) until up.offsets(u + 1))
      require(up.adj(o) > (if (o == up.offsets(u)) u else up.adj(o - 1)),
        s"edge ($u, ${up.adj(o)}) is a self-loop or appears twice: not a DAG of a simple graph")
    up
  }

  /** The one CSR builder: the arcs (from, to) that `arcs` visits (twice,
    * the same way each time) as a CSR, counted on the first visit and
    * filled on the second: row `from` holds the `to`s in the order visited.
    */
  private def group(n: Int)(arcs: ((Int, Int) => Unit) => Unit): CsrGraph = {
    val offsets = new Array[Int](n + 1)
    arcs((from, _) => offsets(from + 1) += 1)
    for (u <- 0 until n) offsets(u + 1) += offsets(u)
    val adj = new Array[Int](offsets(n))
    val cursor = Arrays.copyOf(offsets, n)
    arcs { (from, to) => adj(cursor(from)) = to; cursor(from) += 1 }
    new CsrGraph(n, offsets, adj)
  }
}
