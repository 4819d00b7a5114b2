package repro.bench

import repro.core.CsrGraph

/** Deterministic memory model for Table III.
  *
  * The paper measures resident set size; a JVM heap number would be
  * dominated by Spark/JVM overheads, so we charge each algorithm the
  * bytes of the structures its complexity analysis says it holds:
  *
  *  - HG:  CSR graph + DAG + validity bits                 → O(n+m)
  *  - L/LP: HG + node scores + heap entries                → O(n+m)
  *  - GC:  LP + all τ materialised cliques + sort order    → O(n+m+τ)
  *  - OPT: GC + the clique-graph adjacency                 → O(n+m+τ+E_C)
  */
object MemoryModel {
  private val arrayHeader = 16L
  private val objHeader = 16L

  def csrBytes(g: CsrGraph): Long =
    4L * (g.n + 1) + 4L * g.adjSize + 2 * arrayHeader

  /** Base held by every algorithm: input CSR + oriented DAG + valid[]. */
  def baseBytes(g: CsrGraph): Long = 2 * csrBytes(g) + g.n + arrayHeader

  def hgBytes(g: CsrGraph): Long = baseBytes(g)

  /** node scores (8n) + min-heap entries: ≤ one per source node, each an
    * entry object with a k-int array. This models the paper's heap
    * entries, and it feeds `gcBytes` and the OOM gate, so it stays as is;
    * the code holds flat slots instead, 8n + 4kn + 4n bytes (scores,
    * cliques, heap of sources).
    */
  def lpBytes(g: CsrGraph, k: Int): Long =
    baseBytes(g) + 8L * g.n + g.n.toLong * (objHeader + 8 + 4 + arrayHeader + 4L * k)

  /** LP base + τ cliques (k-int array each) + the τ-long sort order.
    * This models the paper's GC, and it feeds `optBytes` and the OOM
    * gate, so it stays as is. The code holds one flat 4kτ-byte clique
    * array, which `CliqueSearch.listAll` sizes exactly from per-block
    * counts and fills in canonical lex order, and `CliqueScoreGreedy.select`
    * stores no clique score: it adds the τ-int order of
    * `Orderings.ascending`, a second τ-int order only when the largest
    * clique score needs a second 16-bit digit, and one 2^16-bucket count
    * array.
    */
  def gcBytes(g: CsrGraph, k: Int, tau: Long): Long =
    lpBytes(g, k) + tau * (arrayHeader + 4L * k + 8L) + 8L * tau

  /** GC base + clique-graph adjacency (both directions, 4B ids). This
    * models the paper's OPT, which stores the clique graph; `ExactSolver`
    * finds the same optimum from a node → cliques index alone (DESIGN.md
    * §3 deviation 7), so this and the OOM gates stay the paper's model.
    */
  def optBytes(g: CsrGraph, k: Int, tau: Long, conflictEdges: Long): Long =
    gcBytes(g, k, tau) + conflictEdges * 8L + tau * objHeader

  def toMB(bytes: Long): Double = bytes.toDouble / (1024 * 1024)
}
