package repro.core

/** GC — Algorithm 2: store all k-cliques, process them in ascending
  * (clique score, canon) order, greedily keeping disjoint ones.
  *
  * k-approximation to the optimum (Theorem 3); O(k·m·(d/2)^(k-2) + τ·logτ)
  * time and O(n+m+τ) space where τ is the number of k-cliques — the memory
  * cost the lightweight implementation removes.
  */
object CliqueScoreGreedy {

  /** Clique score s_c(C) = Σ_{u∈C} s_n(u) (Definition 6). */
  def cliqueScore(c: Array[Int], sn: Array[Long]): Long = {
    var s = 0L
    var i = 0
    while (i < c.length) { s += sn(c(i)); i += 1 }
    s
  }

  /** Greedy selection over pre-materialised cliques. `cliques` must be in
    * canonical (ascending node id) form; the array is not mutated.
    */
  def select(n: Int, k: Int, cliques: Array[Array[Int]], sn: Array[Long]): DisjointResult = {
    val order = cliques.sortBy(c => c)(CliqueOrdering(sn))
    val used = new Array[Boolean](n)
    val out = Vector.newBuilder[Array[Int]]
    var i = 0
    while (i < order.length) {
      val c = order(i)
      var free = true
      var j = 0
      while (j < k && free) { if (used(c(j))) free = false; j += 1 }
      if (free) {
        out += c
        j = 0
        while (j < k) { used(c(j)) = true; j += 1 }
      }
      i += 1
    }
    DisjointResult(k, out.result())
  }

  /** Full GC pipeline: node scores + listing on the score-ordered DAG,
    * then greedy selection. Returns (result, number of stored cliques)
    * so benches can model GC's memory cost.
    */
  def run(g: CsrGraph, k: Int, snIn: Array[Long] = null): (DisjointResult, Long) = {
    val sn = if (snIn != null) snIn else {
      val dag0 = CsrGraph.orient(g, Orderings.byId(g.n))
      CliqueSearch.countPerNode(dag0, k)
    }
    val rank = Orderings.byScore(sn)
    val dag = CsrGraph.orient(g, rank)
    val cliques = CliqueSearch.listAll(dag, k)
    (select(g.n, k, cliques, sn), cliques.length.toLong)
  }

  /** The fixed total clique ordering: ascending (score, canonical lex). */
  final case class CliqueOrdering(sn: Array[Long]) extends Ordering[Array[Int]] {
    override def compare(a: Array[Int], b: Array[Int]): Int = {
      val sa = cliqueScore(a, sn)
      val sb = cliqueScore(b, sn)
      if (sa != sb) java.lang.Long.compare(sa, sb)
      else CliqueSearch.compareCanon(a, b)
    }
  }
}
