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
  * The enumerating entry points share one recursion, `rec`; they differ
  * only in the level-0 candidates, the prune limit and the leaf action.
  * Per-node counts (`countPerNode`) come from a second one, `pivot`,
  * which counts the cliques of each source without visiting them.
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

  // ---------------------------------------------------------------------
  // Per-node counts by pivoting (Jain & Seshadhri's Pivoter), without
  // visiting the cliques one by one.
  // ---------------------------------------------------------------------

  /** Words per bitset for the current source: ⌈d/64⌉, d its out-degree. */
  private var words = 0
  /** Row i, `words` longs: the positions in S, the current source's
    * out-list, of the nodes adjacent to S(i). Allocated on the first
    * count, with the rest of the pivoting scratch.
    */
  private var nbr: Array[Long] = null
  /** The candidate set P of each recursion depth, `words` longs each. */
  private var sets: Array[Long] = null
  /** The current source's counts so far, by position in S. */
  private var gained: Array[Long] = null
  /** C(a, b) at a·(k+1) + b, for a up to the largest out-degree, b ≤ k. */
  private var binom: Array[Long] = null
  /** Running sums over the leaves visited for the current source: what
    * each held node gets, and what each pivot gets. A node's count is the
    * growth of its sum over its branch.
    */
  private var heldSum = 0L
  private var pivotSum = 0L

  private def allocatePivoting(): Unit = {
    val d = math.max(dag.maxDegree, 1)
    val w = (d + 63) >>> 6
    nbr = new Array[Long](d * w)
    sets = new Array[Long]((d + 1) * w)
    gained = new Array[Long](d)
    binom = new Array[Long]((d + 1) * (k + 1))
    for (a <- 0 to d) {
      binom(a * (k + 1)) = 1L
      for (b <- 1 to math.min(a, k)) binom(a * (k + 1) + b) = binom((a - 1) * (k + 1) + b - 1) + binom((a - 1) * (k + 1) + b)
    }
  }

  /** Add to `counts` every node's number of k-cliques rooted at `u`
    * (exact modulo 2^64, like any sum of Longs). For k ≥ 3 they are u plus
    * the (k−1)-cliques of its out-list S: build S's undirected adjacency
    * as bitsets, by merging each out-list of S with S, then count by
    * pivoting from u held and P = S.
    */
  private def countFrom(u: Int, counts: Array[Long]): Unit = {
    val d = dag.degree(u)
    val adj = dag.adj
    val base = dag.offsets(u)
    if (k == 2) { // the cliques are u's out-edges
      counts(u) += d
      for (o <- base until base + d) counts(adj(o)) += 1
      return
    }
    if (d < k - 1) return
    if (nbr == null) allocatePivoting()
    val w = (d + 63) >>> 6
    words = w
    Arrays.fill(nbr, 0, d * w, 0L)
    var i = 0
    while (i < d) {
      var o = dag.offsets(adj(base + i))
      val end = dag.offsets(adj(base + i) + 1)
      if (o < end) {
        // skip the nodes of S below the out-list's first node
        val at = Arrays.binarySearch(adj, base, base + d, adj(o))
        var j = (if (at >= 0) at else -at - 1) - base
        while (j < d && o < end) { // without branches: ids are ≥ 0, so a − b cannot overflow
          val a = adj(base + j); val b = adj(o)
          val hit = ((((a - b) | (b - a)) >>> 31) ^ 1).toLong // 1 when a == b
          nbr(i * w + (j >>> 6)) |= hit << j
          nbr(j * w + (i >>> 6)) |= hit << i
          j += 1 - ((b - a) >>> 31)
          o += 1 - ((a - b) >>> 31)
        }
      }
      i += 1
    }
    Arrays.fill(sets, 0, w, -1L)
    if ((d & 63) != 0) sets(w - 1) = -1L >>> (64 - (d & 63))
    Arrays.fill(gained, 0, d, 0L)
    heldSum = 0L
    pivotSum = 0L
    pivot(0, d, 1, 0)
    counts(u) += heldSum
    i = 0
    while (i < d) { counts(adj(base + i)) += gained(i); i += 1 }
  }

  /** The number of v's neighbours in the set at `sets(at)`. */
  private def inP(v: Int, at: Int): Int = {
    val w = words
    var c = 0
    var j = 0
    while (j < w) { c += java.lang.Long.bitCount(nbr(v * w + j) & sets(at + j)); j += 1 }
    c
  }

  /** Count the k-cliques made of the `h` held nodes, a subset of the `q`
    * pivots and a clique of P, the `size` nodes of `sets` at `depth`. The
    * held nodes and the pivots form a clique, and every node of P is
    * adjacent to all of them; h + q + size ≥ k.
    *
    * With r = k − h = 2 nodes left to choose, the cliques are the held
    * nodes plus an adjacent pair of Q ∪ P (Q the pivots): each held node
    * gets their number, C(q, 2) + q·size + |E(P)|, each pivot q − 1 + size
    * and each node x of P q + deg_P(x). With r ≥ 3 and P empty, the r
    * nodes come from the pivots: each held node gets C(q, r), each pivot
    * C(q − 1, r − 1).
    * Otherwise the pivot p is the node of P with the most neighbours in P,
    * and the branches are the nodes v of P outside N(p), each on what is
    * left of P within N(v): p joins the pivots, any other v the held
    * nodes. A branch that cannot reach k nodes is cut.
    */
  private def pivot(depth: Int, size: Int, h: Int, q: Int): Unit = {
    val w = words
    val at = depth * w
    val r = k - h
    if (r == 2) {
      // the adjacent pairs of Q ∪ P: all of Q–Q and Q–P, and P's edges
      var twiceEdges = 0L
      var i = 0
      while (i < w) {
        var x = sets(at + i)
        while (x != 0) {
          val v = (i << 6) + java.lang.Long.numberOfTrailingZeros(x)
          val c = inP(v, at)
          gained(v) += q + c
          twiceEdges += c
          x &= x - 1
        }
        i += 1
      }
      heldSum += q.toLong * (q - 1) / 2 + q.toLong * size + twiceEdges / 2
      pivotSum += q - 1 + size
    } else if (size == 0) {
      heldSum += binom(q * (k + 1) + r)
      pivotSum += binom((q - 1) * (k + 1) + r - 1)
    } else {
      var p = -1
      var most = -1
      var i = 0
      while (i < w) {
        var x = sets(at + i)
        while (x != 0) {
          val v = (i << 6) + java.lang.Long.numberOfTrailingZeros(x)
          val c = inP(v, at)
          if (c > most) { most = c; p = v }
          x &= x - 1
        }
        i += 1
      }
      val next = at + w
      i = 0
      while (i < w) {
        var x = sets(at + i) & ~nbr(p * w + i)
        while (x != 0) {
          val v = (i << 6) + java.lang.Long.numberOfTrailingZeros(x)
          var len = 0
          var j = 0
          while (j < w) {
            val y = nbr(v * w + j) & sets(at + j)
            sets(next + j) = y
            len += java.lang.Long.bitCount(y)
            j += 1
          }
          if (h + q + 1 + len >= k) {
            if (v == p) {
              val before = pivotSum
              pivot(depth + 1, len, h, q + 1)
              gained(v) += pivotSum - before
            } else {
              val before = heldSum
              pivot(depth + 1, len, h + 1, q)
              gained(v) += heldSum - before
            }
          }
          sets(at + i) &= ~(1L << v)
          x &= x - 1
        }
        i += 1
      }
    }
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
    * Definition 5, when the sources are every node), by pivoting.
    */
  def countPerNode(search: CliqueSearch, sources: SourcePass.Sources): Array[Long] = {
    val counts = new Array[Long](search.dag.n)
    sources.foreach(search.countFrom(_, counts))
    counts
  }

  def countPerNode(dag: CsrGraph, k: Int): Array[Long] =
    countPerNode(new CliqueSearch(dag, k), SourcePass.dealt(dag.n, 1, 0))

  /** The cliques rooted at `sources`, flat and canonical (ids ascending). */
  def listAll(search: CliqueSearch, sources: SourcePass.Sources): Cliques = {
    val out = new Cliques.Buffer(search.k)
    sources.foreach(search.forEachFrom(_, null)(out.add))
    Cliques(search.k, out.nodes)
  }

  /** Materialise every k-clique, flat and canonical (ids ascending). */
  def listAll(dag: CsrGraph, k: Int): Cliques =
    listAll(new CliqueSearch(dag, k), SourcePass.dealt(dag.n, 1, 0))
}
