package repro.core

import java.util.Arrays
import scala.collection.mutable

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

  /** Cliques per chunk of a `Buffer`. */
  private[core] final val Chunk = 4096

  /** Appends cliques in canonical form to chunks of `Chunk` cliques, which
    * `nodes` copies once into the flat result: no chunk is copied as the
    * buffer grows.
    */
  final class Buffer(k: Int) {
    private val chunks = mutable.ArrayBuffer.empty[Array[Int]]
    /** The last of `chunks`. */
    private var chunk: Array[Int] = null
    private var count = 0

    /** Append a copy of `c` (any node order), sorted ascending. */
    def add(c: Array[Int]): Unit = {
      checkSize(count + 1L, k)
      val at = count % Chunk * k
      if (at == 0) { chunk = new Array[Int](Chunk * k); chunks += chunk }
      System.arraycopy(c, 0, chunk, at, k)
      Arrays.sort(chunk, at, at + k)
      count += 1
    }

    /** Number of cliques added so far. */
    def length: Int = count

    /** The nodes added so far, in one exactly sized array. */
    def nodes: Array[Int] = {
      val out = new Array[Int](count * k)
      val size = Chunk * k
      for (i <- chunks.indices) System.arraycopy(chunks(i), 0, out, i * size, math.min(size, out.length - i * size))
      out
    }
  }
}
