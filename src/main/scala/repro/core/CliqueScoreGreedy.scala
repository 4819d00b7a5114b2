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

  /** Bits of the clique score taken by one counting pass. */
  private val DigitBits = 16
  private val DigitMask = (1L << DigitBits) - 1

  /** Greedy selection over pre-materialised canonical cliques, in
    * ascending (clique score, canonical lex) order.
    *
    * The order comes from stable LSD counting passes alone: one per column
    * by node id, last column first, which leaves canonical lex order, then
    * one per 16-bit digit of the clique score (Definition 6), lowest first,
    * up to the highest digit any score uses. A linear scan over a `used`
    * bitmap then selects: O((k + passes)·τ + n), no comparator. A negative
    * node score or a clique score over `Long.MaxValue` is rejected.
    */
  def select(n: Int, k: Int, cliques: Cliques, sn: Array[Long]): DisjointResult = {
    require(cliques.k == k, s"cliques of ${cliques.k} nodes for k=$k")
    require(sn.length == n, s"node scores cover ${sn.length} nodes, the graph has $n")
    val tau = cliques.length
    val nodes = cliques.nodes
    val score = new Array[Long](tau)
    var maxScore = 0L
    var c = 0
    while (c < tau) {
      var s = 0L
      var j = 0
      while (j < k) {
        val x = sn(nodes(c * k + j))
        if (x < 0) throw new IllegalArgumentException(s"node ${nodes(c * k + j)} has score $x < 0")
        s = try Math.addExact(s, x) catch {
          case _: ArithmeticException =>
            throw new IllegalArgumentException(s"clique $c's score is over Long.MaxValue")
        }
        j += 1
      }
      score(c) = s
      if (s > maxScore) maxScore = s
      c += 1
    }

    var order = new Array[Int](tau)
    var next = new Array[Int](tau)
    c = 0
    while (c < tau) { order(c) = c; c += 1 }
    val count = new Array[Int](math.max(n, 1 << DigitBits) + 1)
    def pass(buckets: Int)(key: Int => Int): Unit = {
      countingPass(order, next, count, buckets)(key)
      val t = order; order = next; next = t
    }
    var col = k - 1
    while (col >= 0) {
      val at = col
      pass(n)(c => nodes(c * k + at))
      col -= 1
    }
    val bits = 64 - java.lang.Long.numberOfLeadingZeros(maxScore)
    var shift = 0
    while (shift < bits) {
      val at = shift
      pass(1 << DigitBits)(c => ((score(c) >>> at) & DigitMask).toInt)
      shift += DigitBits
    }

    val used = new Array[Boolean](n)
    val out = Vector.newBuilder[Array[Int]]
    var i = 0
    while (i < tau) {
      val base = order(i) * k
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

  /** One stable counting pass: `next` gets the cliques of `order` sorted
    * by `key`, a value in [0, buckets), ties kept in `order`'s order.
    */
  private def countingPass(order: Array[Int], next: Array[Int], count: Array[Int], buckets: Int)
                          (key: Int => Int): Unit = {
    Arrays.fill(count, 0, buckets + 1, 0)
    var i = 0
    while (i < order.length) { count(key(i) + 1) += 1; i += 1 }
    var v = 0
    while (v < buckets) { count(v + 1) += count(v); v += 1 }
    i = 0
    while (i < order.length) {
      val c = order(i)
      val v = key(c)
      next(count(v)) = c
      count(v) += 1
      i += 1
    }
  }
}
