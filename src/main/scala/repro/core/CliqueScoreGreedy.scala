package repro.core

import java.util.Arrays

/** GC — Algorithm 2: store all k-cliques, process them in ascending
  * (clique score, canon) order, greedily keeping disjoint ones.
  *
  * k-approximation to the optimum (Theorem 3); O(k·m·(d/2)^(k-2) + τ·logτ)
  * time and O(n+m+τ) space where τ is the number of k-cliques — the memory
  * cost the lightweight implementation removes.
  */
object CliqueScoreGreedy {

  /** Clique score s_c(C) = Σ_{u∈C} s_n(u) (Definition 6). */
  def cliqueScore(c: Array[Int], sn: Array[Long]): Long = {
    var s = 0L
    var i = 0
    while (i < c.length) { s += sn(c(i)); i += 1 }
    s
  }

  /** Greedy selection over pre-materialised canonical cliques, in
    * ascending (clique score, canonical lex) order.
    *
    * Each clique gets one packed key, `score · τ + lexRank`, where
    * lexRank is its position in canonical lex order (an LSD radix sort
    * by node id over the k columns, k counting passes of O(τ + n)). One
    * `Arrays.sort` of τ longs then gives the order, and a linear scan
    * over a `used` bitmap selects: O(k·τ + τ log τ), no comparator.
    *
    * No overflow: a node's score counts the cliques it is in, so a
    * clique's score is at most k·τ and a key is below k·τ² + τ. Flat
    * storage holds τ·k ≤ `Int.MaxValue` ids (`Cliques.checkSize`), so
    * k·τ² + τ < 2^62 + 2^31 < 2^63. Scores from elsewhere are checked.
    */
  def select(n: Int, k: Int, cliques: Cliques, sn: Array[Long]): DisjointResult = {
    require(cliques.k == k, s"cliques of ${cliques.k} nodes for k=$k")
    require(sn.length == n, s"node scores cover ${sn.length} nodes, the graph has $n")
    val tau = cliques.length
    val nodes = cliques.nodes
    val lex = lexOrder(n, cliques)
    val keys = new Array[Long](tau)
    val maxScore = if (tau == 0) 0L else (Long.MaxValue - tau) / tau
    var r = 0
    while (r < tau) {
      val base = lex(r) * k
      var s = 0L
      var j = 0
      while (j < k) { s += sn(nodes(base + j)); j += 1 }
      if (s < 0 || s > maxScore)
        throw new IllegalArgumentException(s"clique score $s does not pack with τ=$tau")
      keys(r) = s * tau + r
      r += 1
    }
    Arrays.sort(keys)
    val used = new Array[Boolean](n)
    val out = Vector.newBuilder[Array[Int]]
    var i = 0
    while (i < tau) {
      val base = lex((keys(i) % tau).toInt) * k
      var free = true
      var j = 0
      while (j < k && free) { if (used(nodes(base + j))) free = false; j += 1 }
      if (free) {
        j = 0
        while (j < k) { used(nodes(base + j)) = true; j += 1 }
        out += Arrays.copyOfRange(nodes, base, base + k)
      }
      i += 1
    }
    DisjointResult(k, out.result())
  }

  /** Clique indices in canonical lex order: a stable counting sort by
    * node id per column, last column first.
    */
  private def lexOrder(n: Int, cliques: Cliques): Array[Int] = {
    val k = cliques.k
    val tau = cliques.length
    val nodes = cliques.nodes
    var order = new Array[Int](tau)
    var next = new Array[Int](tau)
    var i = 0
    while (i < tau) { order(i) = i; i += 1 }
    val count = new Array[Int](n + 1)
    var col = k - 1
    while (col >= 0) {
      Arrays.fill(count, 0)
      i = 0
      while (i < tau) { count(nodes(i * k + col) + 1) += 1; i += 1 }
      var v = 0
      while (v < n) { count(v + 1) += count(v); v += 1 }
      i = 0
      while (i < tau) {
        val c = order(i)
        val v = nodes(c * k + col)
        next(count(v)) = c
        count(v) += 1
        i += 1
      }
      val t = order; order = next; next = t
      col -= 1
    }
    order
  }

  /** Full GC pipeline: node scores + listing on the score-ordered DAG,
    * then greedy selection. Returns (result, number of stored cliques)
    * so benches can model GC's memory cost.
    */
  def run(g: CsrGraph, k: Int, snIn: Array[Long] = null): (DisjointResult, Long) = {
    val sn = if (snIn != null) snIn else {
      val dag0 = CsrGraph.orient(g, Orderings.byId(g.n))
      CliqueSearch.countPerNode(dag0, k)
    }
    val rank = Orderings.byScore(sn)
    val dag = CsrGraph.orient(g, rank)
    val cliques = CliqueSearch.listAll(dag, k)
    (select(g.n, k, cliques, sn), cliques.length.toLong)
  }
}
