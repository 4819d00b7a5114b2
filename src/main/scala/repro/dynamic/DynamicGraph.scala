package repro.dynamic

import java.util.Arrays
import repro.core.CsrGraph

/** Mutable adjacency supporting the edge insert/delete workloads of
  * Section V, in the layout of a CSR slice: one exactly sized row per
  * node, its neighbours ascending, so membership is a binary search. An
  * update replaces the two rows it changes and never writes into one.
  */
final class DynamicGraph(val n: Int) {
  private val rows: Array[Array[Int]] = Array.fill(n)(Array.emptyIntArray)

  private var edgeCnt: Long = 0L
  def edgeCount: Long = edgeCnt

  /** u's neighbours, ascending; the caller must not write into it. */
  def neighbours(u: Int): Array[Int] = rows(u)

  /** No self-loop is stored, so `hasEdge(u, u)` is false. */
  def hasEdge(u: Int, v: Int): Boolean = Arrays.binarySearch(rows(u), v) >= 0

  /** Returns false if the edge already existed or is a self-loop. */
  def addEdge(u: Int, v: Int): Boolean = {
    if (u == v || hasEdge(u, v)) return false
    insert(u, v); insert(v, u); edgeCnt += 1
    true
  }

  /** Returns false if the edge was absent. */
  def removeEdge(u: Int, v: Int): Boolean = {
    if (!hasEdge(u, v)) return false
    remove(u, v); remove(v, u); edgeCnt -= 1
    true
  }

  /** Replace u's row by a copy with v put in, in order. */
  private def insert(u: Int, v: Int): Unit = {
    val row = rows(u)
    val at = -Arrays.binarySearch(row, v) - 1
    rows(u) = Arrays.copyOf(row, row.length + 1)
    System.arraycopy(row, at, rows(u), at + 1, row.length - at)
    rows(u)(at) = v
  }

  /** Replace u's row by a copy without v. */
  private def remove(u: Int, v: Int): Unit = {
    val row = rows(u)
    val at = Arrays.binarySearch(row, v)
    rows(u) = Arrays.copyOf(row, row.length - 1)
    System.arraycopy(row, at + 1, rows(u), at, row.length - 1 - at)
  }

  /** The rows are sorted and symmetric already, so they are the CSR's. */
  def toCsr: CsrGraph = CsrGraph.group(n) { f =>
    for (u <- 0 until n) { val row = neighbours(u); var i = 0; while (i < row.length) { f(u, row(i)); i += 1 } }
  }
}

object DynamicGraph {
  /** A copy of the undirected graph `g`. */
  def fromCsr(g: CsrGraph): DynamicGraph = {
    val d = new DynamicGraph(g.n)
    for (u <- 0 until g.n) d.rows(u) = g.neighborsOf(u)
    d.edgeCnt = g.undirectedEdgeCount
    d
  }
}
