package repro.core

import java.util.Arrays

/** How `findMin` prunes branches on partial score sums.
  *
  *  - `NoPrune`: plain enumeration (the paper's algorithm L).
  *  - `Strict`: prune when the partial sum exceeds (`>`) the best score.
  *    Keeps equal-score branches alive so the lexicographic tie-break is
  *    exact, which makes Lightweight ≡ CliqueScoreGreedy (Theorem 4).
  *  - `Paper`: the paper's `≥` condition (slightly more pruning; ties may
  *    resolve differently, as the paper itself notes for its LP).
  */
sealed trait PruneMode
object PruneMode {
  case object NoPrune extends PruneMode
  case object Strict  extends PruneMode
  case object Paper   extends PruneMode
}

/** kClist-style k-clique search over a DAG orientation (Danisch et al.).
  *
  * Every k-clique of the undirected graph is visited exactly once, rooted
  * at its highest-η node: candidates at each level are the intersection
  * of the out-neighbourhoods of all chosen nodes. A `valid` mask (or
  * `null` for "all valid") restricts the search to still-unassigned
  * nodes, which is how the greedy algorithms shrink the residual graph
  * without rebuilding it.
  *
  * All entry points share one recursion, `rec`; they differ only in the
  * level-0 candidates, the prune limit and the leaf action.
  *
  * Not thread-safe: buffers are reused across calls. Create one instance
  * per thread / Spark partition.
  */
final class CliqueSearch(val dag: CsrGraph, val k: Int) {
  require(k >= 2, s"k must be >= 2, got $k")

  private val candBuf = Array.ofDim[Int](k, math.max(dag.maxDegree, 1))
  private val clique  = new Array[Int](k)
  /** `cheapest`'s scratch. */
  private val lowest  = new Array[Long](k)

  /** Node scores for the partial sums, or null when the search is unscored. */
  private var scores: Array[Long] = null
  /** A branch whose partial score sum, plus the cheapest completion, exceeds `limit` is cut. */
  private var limit: Long = Long.MaxValue
  /** Score of the clique handed to the leaf. */
  private var leafScore: Long = 0L
  /** Set by a leaf to stop the search. */
  private var stop: Boolean = false

  /** Valid out-degree of `u` (out-neighbours passing the mask). */
  def validOutDegree(u: Int, valid: Array[Boolean]): Int = {
    if (valid == null) return dag.degree(u)
    var d = 0
    var o = dag.offsets(u)
    val end = dag.offsets(u + 1)
    while (o < end) { if (valid(dag.adj(o))) d += 1; o += 1 }
    d
  }

  /** newCand = cand[0,len) ∩ N⁺(v), both sorted ascending by id. */
  private def intersect(cand: Array[Int], len: Int, v: Int, out: Array[Int]): Int = {
    var i = 0
    var o = dag.offsets(v)
    val end = dag.offsets(v + 1)
    var w = 0
    while (i < len && o < end) {
      val a = cand(i); val b = dag.adj(o)
      if (a == b) { out(w) = a; w += 1; i += 1; o += 1 }
      else if (a < b) i += 1
      else o += 1
    }
    w
  }

  /** Sum of the `r` smallest scores over `cand[0,len)`, len ≥ r: the
    * least that r distinct nodes of `cand` can add to a partial sum.
    */
  private def cheapest(cand: Array[Int], len: Int, r: Int): Long = {
    val low = lowest // ascending; low(0 until m) are the m smallest so far
    var m = 0
    var i = 0
    while (i < len) {
      val x = scores(cand(i))
      if (m < r || x < low(r - 1)) {
        var j = if (m < r) { m += 1; m - 1 } else r - 1
        while (j > 0 && low(j - 1) > x) { low(j) = low(j - 1); j -= 1 }
        low(j) = x
      }
      i += 1
    }
    var sum = 0L
    i = 0
    while (i < r) { sum += low(i); i += 1 }
    sum
  }

  /** The one recursion: fill `clique(level)` from `cand[0,nCand)` in
    * ascending order, then the levels below it from the intersections.
    * `partial` is the score of `clique(0 until level)`. At level k-1 the
    * leaf gets the clique, with its score in `leafScore`; it sets `stop`
    * to end the search, and `rec` then returns true.
    *
    * Under a prune limit, a branch that still needs r ≥ 2 nodes is cut
    * when even its r cheapest candidates would take the sum past the
    * limit; at r = 1 the leaf loop makes that test exactly.
    */
  private def rec(level: Int, cand: Array[Int], nCand: Int, partial: Long,
                  leaf: Array[Int] => Unit): Boolean = {
    val sn = scores
    val last = level == k - 1
    val next = if (last) null else candBuf(level)
    var i = 0
    while (i < nCand) {
      val v = cand(i)
      val s = if (sn == null) partial else partial + sn(v)
      if (s <= limit) {
        clique(level) = v
        if (last) {
          leafScore = s
          leaf(clique)
          if (stop) return true
        } else {
          val len = intersect(cand, nCand, v, next)
          val r = k - 1 - level
          if (len >= r && !(r >= 2 && limit != Long.MaxValue && s + cheapest(next, len, r) > limit) &&
              rec(level + 1, next, len, s, leaf)) return true
        }
      }
      i += 1
    }
    false
  }

  /** Start `rec` at `level` with the given scores (null: unscored) and no
    * prune limit; a leaf may tighten `limit` as it goes.
    */
  private def run(level: Int, cand: Array[Int], nCand: Int, partial: Long,
                  sn: Array[Long], leaf: Array[Int] => Unit): Boolean = {
    scores = sn
    limit = Long.MaxValue
    stop = false
    nCand >= k - level && rec(level, cand, nCand, partial, leaf)
  }

  /** Put `u` at level 0 and its valid out-neighbours in the level-0
    * buffer; returns their number, or -1 when `u` itself is masked.
    */
  private def root(u: Int, valid: Array[Boolean]): Int = {
    if (valid != null && !valid(u)) return -1
    clique(0) = u
    val out = candBuf(0)
    var len = 0
    var o = dag.offsets(u)
    val end = dag.offsets(u + 1)
    while (o < end) {
      val v = dag.adj(o)
      if (valid == null || valid(v)) { out(len) = v; len += 1 }
      o += 1
    }
    len
  }

  // ---------------------------------------------------------------------
  // Enumeration
  // ---------------------------------------------------------------------

  /** Visit the k-cliques that extend `prefix` with nodes of
    * `cand[0,nCand)`. The caller guarantees that `prefix` is a clique,
    * that `cand` is sorted ascending and that every node of `cand` is
    * adjacent to all of `prefix`. Extensions come in lexicographic order
    * of their node ids when out-neighbours are the higher ids. `f` gets
    * the reused clique array (prefix first) and returns true to stop;
    * the result says whether it did.
    */
  def forEachExtending(prefix: Array[Int], cand: Array[Int], nCand: Int)
                      (f: Array[Int] => Boolean): Boolean = {
    val p = prefix.length
    require(p <= k, s"prefix of ${prefix.length} nodes for k=$k")
    System.arraycopy(prefix, 0, clique, 0, p)
    if (p == k) f(clique)
    else run(p, cand, nCand, 0L, null, c => stop = f(c))
  }

  /** Visit every k-clique whose highest-η node is `u`: the prefix `(u)`
    * extended by u's valid out-neighbours. The callback's array is
    * reused — copy it if you keep it.
    */
  def forEachFrom(u: Int, valid: Array[Boolean])(f: Array[Int] => Unit): Unit = {
    val len = root(u, valid)
    run(1, candBuf(0), len, 0L, null, f)
  }

  // ---------------------------------------------------------------------
  // Algorithm 1's FindOne: first k-clique containing u among valid nodes.
  // ---------------------------------------------------------------------

  /** Returns a fresh array (paper order: descending η along the DFS path)
    * or null if no k-clique containing `u` exists among valid nodes.
    */
  def findFirst(u: Int, valid: Array[Boolean]): Array[Int] =
    if (run(1, candBuf(0), root(u, valid), 0L, null, _ => stop = true)) clique.clone() else null

  // ---------------------------------------------------------------------
  // Algorithm 3's FindMin: min-(score, canon) clique containing u.
  // ---------------------------------------------------------------------

  private var prune: PruneMode = PruneMode.NoPrune
  private var bestScore: Long = Long.MaxValue
  private var found: Boolean = false
  /** The best clique so far, canonical; `sorted` is the leaf's scratch. */
  private var best = new Array[Int](k)
  private var sorted = new Array[Int](k)

  /** Keep the current clique if it beats the best (score, canon) so far;
    * on an improvement, tighten the prune limit to the new best score
    * (`Strict`: `>` prunes) or one below it (`Paper`: `≥` prunes).
    */
  private val minLeaf: Array[Int] => Unit = { c =>
    val score = leafScore
    if (!found || score <= bestScore) {
      System.arraycopy(c, 0, sorted, 0, k)
      Arrays.sort(sorted)
      if (!found || score < bestScore || CliqueSearch.compareCanon(sorted, best) < 0) {
        found = true
        bestScore = score
        val t = best; best = sorted; sorted = t
        limit = prune match {
          case PruneMode.NoPrune => Long.MaxValue
          case PruneMode.Strict  => score
          case PruneMode.Paper   => score - 1
        }
      }
    }
  }

  /** Find the clique rooted at `u` minimising (Σ s_n, canon), with the
    * score-driven pruning strategy of Algorithm 3, tightened by the
    * cheapest completion of each branch (which cuts no clique the leaf
    * test would accept, so the result is the same). The clique, canonical
    * (ids ascending, which is also the tie-break between equal scores),
    * goes to `out[at, at+k)` and its score is returned; when u roots no
    * clique among valid nodes, `out` is untouched and the result is
    * [[CliqueSearch.NoClique]].
    */
  def findMin(u: Int, valid: Array[Boolean], sn: Array[Long], prune: PruneMode,
              out: Array[Int], at: Int): Long = {
    val len = root(u, valid)
    if (len < 0) return CliqueSearch.NoClique
    this.prune = prune
    found = false
    run(1, candBuf(0), len, sn(u), sn, minLeaf)
    if (!found) return CliqueSearch.NoClique
    System.arraycopy(best, 0, out, at, k)
    bestScore
  }
}

object CliqueSearch {

  /** `findMin`'s result when the source roots no clique. */
  val NoClique: Long = Long.MinValue

  /** Lexicographic comparison of canonical (ascending-sorted) cliques. */
  def compareCanon(a: Array[Int], b: Array[Int]): Int = {
    var i = 0
    while (i < a.length && i < b.length) {
      if (a(i) != b(i)) return Integer.compare(a(i), b(i))
      i += 1
    }
    Integer.compare(a.length, b.length)
  }

  // The part functions of a source pass (`SourcePass`): each
  // `(search, sources)` form visits the cliques rooted at `sources`; the
  // `(dag, k)` forms run it over every node on the calling thread.

  /** Per-node counts of the cliques rooted at `sources` (node scores,
    * Definition 5, when the sources are every node).
    */
  def countPerNode(search: CliqueSearch, sources: Iterator[Int]): Array[Long] = {
    val counts = new Array[Long](search.dag.n)
    val k = search.k
    sources.foreach { u =>
      search.forEachFrom(u, null) { c =>
        var i = 0
        while (i < k) { counts(c(i)) += 1; i += 1 }
      }
    }
    counts
  }

  def countPerNode(dag: CsrGraph, k: Int): Array[Long] =
    countPerNode(new CliqueSearch(dag, k), Iterator.range(0, dag.n))

  /** The cliques rooted at `sources`, flat and canonical (ids ascending). */
  def listAll(search: CliqueSearch, sources: Iterator[Int]): Cliques = {
    val out = new Cliques.Buffer(search.k)
    sources.foreach(search.forEachFrom(_, null)(out.add))
    Cliques(search.k, out.nodes)
  }

  /** Materialise every k-clique, flat and canonical (ids ascending). */
  def listAll(dag: CsrGraph, k: Int): Cliques =
    listAll(new CliqueSearch(dag, k), Iterator.range(0, dag.n))
}
