package repro.core

import java.util.Arrays

/** τ materialised k-cliques stored flat: clique i is
  * `nodes[i·k, (i+1)·k)`, node ids ascending (canonical form).
  *
  * One `Array[Int]` instead of τ small arrays: no per-clique header or
  * reference. Flat storage needs τ·k ≤ `Int.MaxValue`; `Buffer` checks it
  * with [[Cliques.checkSize]] before it would exceed it.
  */
final case class Cliques(k: Int, nodes: Array[Int]) {
  require(k >= 1 && nodes.length % k == 0, s"${nodes.length} nodes do not split into $k-cliques")

  /** τ, the number of cliques. */
  def length: Int = nodes.length / k

  /** A copy of clique i. */
  def apply(i: Int): Array[Int] = Arrays.copyOfRange(nodes, i * k, (i + 1) * k)
}

object Cliques {

  /** Throws IllegalStateException when τ cliques of k nodes do not fit
    * one flat `Array[Int]` (τ·k > `Int.MaxValue`).
    */
  def checkSize(tau: Long, k: Int): Unit =
    if (tau * k > Int.MaxValue)
      throw new IllegalStateException(
        s"$tau cliques of k=$k need ${tau * k} ids, over Int.MaxValue for flat clique storage")

  /** Appends cliques in canonical form to a growing flat array. */
  final class Buffer(k: Int) {
    private var buf = new Array[Int](16 * k)
    private var len = 0

    /** Append a copy of `c` (any node order), sorted ascending. */
    def add(c: Array[Int]): Unit = {
      if (len + k > buf.length) {
        checkSize(len / k + 1L, k)
        buf = Arrays.copyOf(buf, math.min(2L * buf.length, Int.MaxValue.toLong).toInt)
      }
      System.arraycopy(c, 0, buf, len, k)
      Arrays.sort(buf, len, len + k)
      len += k
    }

    /** Number of cliques added so far. */
    def length: Int = len / k

    /** The nodes added so far, trimmed to length. */
    def nodes: Array[Int] = if (len == buf.length) buf else Arrays.copyOf(buf, len)
  }
}
