package repro.core

/** A set S of pairwise node-disjoint k-cliques (Definition 3).
  *
  * Cliques are stored in selection order; each clique's nodes are in
  * canonical (ascending id) order.
  */
final case class DisjointResult(k: Int, cliques: Vector[Array[Int]]) {
  /** |S| — the quality measure used throughout the evaluation. */
  def size: Int = cliques.size

  def cliqueSets: Vector[Set[Int]] = cliques.map(_.toSet)
}

object DisjointResult {
  def empty(k: Int): DisjointResult = DisjointResult(k, Vector.empty)
}

/** Checkers used by tests and benches: "it ran" is not "it is correct". */
object Validation {

  /** Every clique has k distinct pairwise-adjacent nodes; cliques are
    * pairwise disjoint. Returns an error description or None.
    */
  def validate(g: CsrGraph, result: DisjointResult): Option[String] = {
    val seen = scala.collection.mutable.HashSet.empty[Int]
    for ((c, idx) <- result.cliques.zipWithIndex) {
      if (c.length != result.k)
        return Some(s"clique #$idx has ${c.length} nodes, expected k=${result.k}")
      if (c.distinct.length != c.length)
        return Some(s"clique #$idx ${c.mkString(",")} has duplicate nodes")
      for (i <- c.indices; j <- (i + 1) until c.length)
        if (!g.hasEdge(c(i), c(j)))
          return Some(s"clique #$idx missing edge (${c(i)},${c(j)})")
      for (v <- c) {
        if (seen.contains(v)) return Some(s"node $v appears in two cliques")
        seen += v
      }
    }
    None
  }

  /** Throws IllegalStateException, naming `label` (dataset, k,
    * algorithm), when `validate` finds an error in `result`.
    */
  def ensureValid(g: CsrGraph, result: DisjointResult, label: String): Unit =
    validate(g, result).foreach(err => throw new IllegalStateException(s"$label: invalid S: $err"))

  /** S is maximal iff the residual graph (covered nodes removed) has no
    * k-clique left. Exhaustive — use on test-scale graphs only.
    */
  def isMaximal(g: CsrGraph, result: DisjointResult): Boolean = {
    val valid = Array.fill(g.n)(true)
    result.cliques.foreach(_.foreach(valid(_) = false))
    val dag = CsrGraph.orient(g, Orderings.byId(g.n))
    val search = new CliqueSearch(dag, result.k)
    var u = 0
    while (u < g.n) {
      if (valid(u) && search.findFirst(u, valid) != null) return false
      u += 1
    }
    true
  }
}
