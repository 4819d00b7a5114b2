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

  /** Greedy selection in ascending (clique score, canonical lex) order over
    * cliques listed canonical and in lex order, as `CliqueSearch.listAll`
    * returns them on the driver.
    *
    * The pass that sums each clique's score (Definition 6) also checks
    * the listing: every id in [0, n), ids rising strictly within each
    * clique, and each clique strictly after the previous one in lex order;
    * anything else, a repeated clique included, is rejected naming the
    * clique's index. Stable LSD counting passes, one per 16-bit digit of
    * the score, lowest first, up to the highest digit any score uses, then
    * order the cliques by score with lex order kept among ties, and a
    * linear scan over a `used` bitmap selects: O(passes·τ + n), no
    * comparator. A negative node score or a clique score over
    * `Long.MaxValue` is rejected.
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
      val base = c * k
      var after = c == 0 // decided: clique c comes after clique c − 1
      var s = 0L
      var j = 0
      while (j < k) {
        val u = nodes(base + j)
        if (u < 0 || u >= n) throw new IllegalArgumentException(s"clique $c has node $u outside [0, $n)")
        if (j > 0 && u <= nodes(base + j - 1))
          throw new IllegalArgumentException(s"clique $c's ids do not rise strictly: ${cliques(c).mkString(",")}")
        if (!after) {
          val was = nodes(base - k + j)
          if (u < was) throw new IllegalArgumentException(s"clique $c comes before clique ${c - 1} in lex order")
          after = u > was
        }
        val x = sn(u)
        if (x < 0) throw new IllegalArgumentException(s"node $u has score $x < 0")
        s = try Math.addExact(s, x) catch {
          case _: ArithmeticException =>
            throw new IllegalArgumentException(s"clique $c's score is over Long.MaxValue")
        }
        j += 1
      }
      if (!after) throw new IllegalArgumentException(s"clique $c repeats clique ${c - 1}")
      score(c) = s
      if (s > maxScore) maxScore = s
      c += 1
    }

    var order = new Array[Int](tau)
    var next = new Array[Int](tau)
    c = 0
    while (c < tau) { order(c) = c; c += 1 }
    val count = new Array[Int]((1 << DigitBits) + 1)
    val bits = 64 - java.lang.Long.numberOfLeadingZeros(maxScore)
    var shift = 0
    while (shift < bits) {
      val at = shift
      countingPass(order, next, count)(c => ((score(c) >>> at) & DigitMask).toInt)
      val t = order; order = next; next = t
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
    * by `key`, a value in [0, `count.length` − 1), ties kept in `order`'s
    * order.
    */
  private def countingPass(order: Array[Int], next: Array[Int], count: Array[Int])(key: Int => Int): Unit = {
    Arrays.fill(count, 0)
    var i = 0
    while (i < order.length) { count(key(i) + 1) += 1; i += 1 }
    var v = 1
    while (v < count.length) { count(v) += count(v - 1); v += 1 }
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
