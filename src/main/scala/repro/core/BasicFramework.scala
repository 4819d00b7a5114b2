package repro.core

/** HG — Algorithm 1, the basic framework.
  *
  * Orient G by a total ordering η, process nodes in ascending η, and for
  * each still-valid node take the *first* k-clique found in its valid
  * out-neighbourhood (`FindOne`), removing the clique's nodes from the
  * residual graph. O(k·m·(d/2)^(k-2)) time, O(n+m) space.
  */
object BasicFramework {

  /** Run HG with the given ordering (default: degree ordering, the
    * ordering the paper discusses for the basic framework).
    */
  def run(g: CsrGraph, k: Int, rank: Array[Int] = null): DisjointResult = {
    val r = if (rank != null) rank else Orderings.byDegree(g)
    val dag = CsrGraph.orient(g, r)
    val search = new CliqueSearch(dag, k)
    val valid = Array.fill(g.n)(true)
    // ascending η: order(i) = node with rank i
    val order = new Array[Int](g.n)
    var u = 0
    while (u < g.n) { order(r(u)) = u; u += 1 }

    val out = Vector.newBuilder[Array[Int]]
    var i = 0
    while (i < g.n) {
      val v = order(i)
      val found = search.findFirst(v, valid) // null when v is masked
      if (found != null) {
        java.util.Arrays.sort(found)
        out += found
        var j = 0
        while (j < k) { valid(found(j)) = false; j += 1 }
      }
      i += 1
    }
    DisjointResult(k, out.result())
  }
}
