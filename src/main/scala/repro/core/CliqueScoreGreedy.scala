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

  /** Greedy selection in ascending (clique score, canonical lex) order over
    * cliques listed canonical and in lex order, as `CliqueSearch.listAll`
    * returns them on the driver.
    *
    * A checking pass sums each clique's score (Definition 6), keeping only
    * the largest, and checks the listing: every id in [0, n), ids rising
    * strictly within each clique, and each clique strictly after the
    * previous one in lex order; anything else, a repeated clique included,
    * is rejected naming the clique's index. A negative node score or a
    * clique score over `Long.MaxValue` is rejected. `Orderings.ascending`
    * then orders the cliques by score, summed again from the node scores
    * on each digit pass rather than stored, with lex order kept among
    * ties, and a linear scan over a `used` bitmap selects: O(passes·k·τ + n),
    * no comparator.
    */
  def select(n: Int, k: Int, cliques: Cliques, sn: Array[Long]): DisjointResult = {
    require(cliques.k == k, s"cliques of ${cliques.k} nodes for k=$k")
    require(sn.length == n, s"node scores cover ${sn.length} nodes, the graph has $n")
    val tau = cliques.length
    val nodes = cliques.nodes
    var max = 0L
    var c = 0
    // The try wraps the loop: a try expression inside it would be lifted
    // into a method, with `s` boxed in a new LongRef for every clique.
    try while (c < tau) {
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
        s = Math.addExact(s, x)
        j += 1
      }
      if (!after) throw new IllegalArgumentException(s"clique $c repeats clique ${c - 1}")
      if (s > max) max = s
      c += 1
    } catch {
      case _: ArithmeticException => throw new IllegalArgumentException(s"clique $c's score is over Long.MaxValue")
    }

    val order = Orderings.ascending(tau, max) { x =>
      var j = x * k
      val end = j + k
      var s = 0L
      while (j < end) { s += sn(nodes(j)); j += 1 }
      s
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
}
