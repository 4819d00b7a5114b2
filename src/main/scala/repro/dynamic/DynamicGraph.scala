package repro.dynamic

import repro.core.CsrGraph
import scala.collection.mutable

/** Mutable adjacency supporting the edge insert/delete workloads of
  * Section V. Hash-set adjacency: O(1) membership, O(deg) neighbour
  * scans.
  */
final class DynamicGraph(val n: Int) {
  private val adj: Array[mutable.HashSet[Int]] = Array.fill(n)(mutable.HashSet.empty[Int])

  private var edgeCnt: Long = 0L
  def edgeCount: Long = edgeCnt

  def hasEdge(u: Int, v: Int): Boolean = u != v && adj(u).contains(v)

  def degree(u: Int): Int = adj(u).size

  /** Returns false if the edge already existed or is a self-loop. */
  def addEdge(u: Int, v: Int): Boolean = {
    if (u == v || adj(u).contains(v)) return false
    adj(u) += v; adj(v) += u; edgeCnt += 1
    true
  }

  /** Returns false if the edge was absent. */
  def removeEdge(u: Int, v: Int): Boolean = {
    if (u == v || !adj(u).contains(v)) return false
    adj(u) -= v; adj(v) -= u; edgeCnt -= 1
    true
  }

  def foreachNeighbor(u: Int)(f: Int => Unit): Unit = adj(u).foreach(f)

  def toCsr: CsrGraph = {
    val src = mutable.ArrayBuffer.empty[Int]
    val dst = mutable.ArrayBuffer.empty[Int]
    var u = 0
    while (u < n) {
      adj(u).foreach { v => if (u < v) { src += u; dst += v } }
      u += 1
    }
    CsrGraph.fromUndirectedEdges(n, src.toArray, dst.toArray)
  }
}

object DynamicGraph {
  def fromCsr(g: CsrGraph): DynamicGraph = {
    val d = new DynamicGraph(g.n)
    var u = 0
    while (u < g.n) {
      g.foreachNeighbor(u) { v => if (u < v) d.addEdge(u, v) }
      u += 1
    }
    d
  }
}
