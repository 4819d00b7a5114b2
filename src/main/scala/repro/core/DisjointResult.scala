package repro.core

/** A set S of pairwise node-disjoint k-cliques (Definition 3).
  *
  * Cliques are stored in selection order; each clique's nodes are in
  * canonical (ascending id) order.
  */
final case class DisjointResult(k: Int, cliques: Vector[Array[Int]]) {
  /** |S| — the quality measure used throughout the evaluation. */
  def size: Int = cliques.size
}

/** Checkers used by tests and benches: "it ran" is not "it is correct". */
object Validation {

  def validate(g: CsrGraph, result: DisjointResult): Option[String] = validate(g.n, g.hasEdge, result)

  /** Every clique has k distinct pairwise-adjacent nodes in [0, n);
    * cliques are pairwise disjoint. Returns an error description or None.
    */
  def validate(n: Int, hasEdge: (Int, Int) => Boolean, result: DisjointResult): Option[String] = {
    val owner = Array.fill(n)(-1) // the index of the clique holding each node
    for ((c, idx) <- result.cliques.zipWithIndex) {
      if (c.length != result.k)
        return Some(s"clique #$idx has ${c.length} nodes, expected k=${result.k}")
      for (v <- c) {
        if (v < 0 || v >= n) return Some(s"clique #$idx node $v is outside [0, $n)")
        if (owner(v) == idx) return Some(s"clique #$idx ${c.mkString(",")} has duplicate nodes")
        if (owner(v) != -1) return Some(s"node $v appears in two cliques")
        owner(v) = idx
      }
      for (i <- c.indices; j <- (i + 1) until c.length)
        if (!hasEdge(c(i), c(j)))
          return Some(s"clique #$idx missing edge (${c(i)},${c(j)})")
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
