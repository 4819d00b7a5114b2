package repro.core

import java.util.Arrays

/** Total node orderings η used by the paper's algorithms, and the one
  * order-by-key routine behind them and GC's clique order.
  *
  * An ordering is represented as a rank array: `rank(u)` is the position
  * of `u` in η, so `η(u) < η(v)` iff `rank(u) < rank(v)`. All orderings
  * break ties by ascending node id, which makes every algorithm in this
  * repo deterministic (a precondition of Theorem 4).
  */
object Orderings {

  /** Bits of the key taken by one counting pass. */
  private val DigitBits = 16
  private val DigitMask = (1L << DigitBits) - 1

  /** Identity ordering: η(u) = u. */
  def byId(n: Int): Array[Int] = Array.range(0, n)

  /** Degree ordering: larger degree ⇒ larger η (ties by id). */
  def byDegree(g: CsrGraph): Array[Int] = {
    val degree = new Array[Long](g.n)
    for (u <- 0 until g.n) degree(u) = g.degree(u)
    byScore(degree)
  }

  /** Node-score ordering of Algorithm 3: η(u) < η(v) ⇒ s_n(u) ≤ s_n(v). */
  def byScore(scores: Array[Long]): Array[Int] = {
    val order = ascending(scores)
    val rank = new Array[Int](order.length)
    for (i <- order.indices) rank(order(i)) = i
    rank
  }

  /** The indices `0 until keys.length` in ascending (key, index) order.
    *
    * Stable LSD counting passes, one per 16-bit digit of the key, lowest
    * first, up to the highest digit any key uses: O(passes·n) with one
    * 2^16+1-int count array and two n-int orders, no comparator. A
    * negative key is rejected.
    */
  def ascending(keys: Array[Long]): Array[Int] = {
    val n = keys.length
    var max = 0L
    var i = 0
    while (i < n) {
      val x = keys(i)
      if (x < 0) throw new IllegalArgumentException(s"key $i is $x < 0")
      if (x > max) max = x
      i += 1
    }
    var order = Array.range(0, n)
    var next = new Array[Int](n)
    val count = new Array[Int]((1 << DigitBits) + 1)
    val bits = 64 - java.lang.Long.numberOfLeadingZeros(max)
    var shift = 0
    while (shift < bits) {
      Arrays.fill(count, 0)
      i = 0
      while (i < n) { count(((keys(i) >>> shift) & DigitMask).toInt + 1) += 1; i += 1 }
      var v = 1
      while (v < count.length) { count(v) += count(v - 1); v += 1 }
      i = 0
      while (i < n) {
        val c = order(i)
        val d = ((keys(c) >>> shift) & DigitMask).toInt
        next(count(d)) = c
        count(d) += 1
        i += 1
      }
      val t = order; order = next; next = t
      shift += DigitBits
    }
    order
  }
}
