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
  * at its highest-η node. A `valid` mask (or `null` for "all valid")
  * restricts the search to still-unassigned nodes, which is how the
  * greedy algorithms shrink the residual graph without rebuilding it.
  *
  * Every search runs on bit-parallel rows (San Segundo et al., Computers
  * & OR 2011) over a set S of nodes in ascending id order, a source's
  * valid out-list or a caller's pool: row i holds, as ⌈|S|/64⌉ words, the
  * positions in S of the out-neighbours of S(i), set through one position
  * map (`place`) by `fill` for a source and `poolRow` for a pool. The
  * enumerating entry points share one recursion, `rec`, whose candidates
  * at each level are the AND of the chosen nodes' rows; they differ
  * only in the level-0 candidates, the prune limit and the
  * leaf action. Per-node counts (`countPerNode`) come from `pivot`, which
  * counts the cliques of each source without visiting them, on the same
  * rows made undirected.
  *
  * Not thread-safe: buffers are reused across calls. Create one instance
  * per thread / Spark partition.
  */
final class CliqueSearch(val dag: CsrGraph, val k: Int) {
  require(k >= 3, s"k must be >= 3, got $k")

  /** A search for `forEachExtending` alone, over pools of a graph it is not given. */
  def this(k: Int) = this(null, k)

  private val clique  = new Array[Int](k)
  /** `cheapest`'s scratch. */
  private val lowest  = new Array[Long](k)

  /** S; its rows, `words` longs each, row i at i·words; and the candidate
    * set of each level of `rec` or depth of `pivot`. Sized for the largest
    * S so far.
    */
  private var members = new Array[Int](0)
  private var words = 0
  private var rows: Array[Long] = null
  private var sets: Array[Long] = null
  /** Node → its position in S between `place` and `unplace`, -1 otherwise. */
  private var pos = new Array[Int](0)

  /** Node scores for the partial sums, or null when the search is unscored. */
  private var scores: Array[Long] = null
  /** A branch whose partial score sum, plus the cheapest completion, exceeds `limit` is cut. */
  private var limit: Long = Long.MaxValue
  /** Score of the clique handed to the leaf. */
  private var leafScore: Long = 0L
  /** Set by a leaf to stop the search. */
  private var stop: Boolean = false

  /** `findMin` calls that searched: from a valid source with ≥ k − 1 valid out-neighbours. */
  private[core] var searches: Long = 0L

  private def reserve(d: Int): Unit = if (d > members.length) {
    val w = (d + 63) >>> 6
    members = new Array[Int](d)
    rows = new Array[Long](d * w)
    sets = new Array[Long]((math.max(d, k) + 1) * w)
  }

  /** Make `members(0 until d)`, all ids below `bound`, the set S: clear
    * its rows and map each node of S to its position in `pos`, which
    * `unplace` undoes.
    */
  private def place(d: Int, bound: Int): Unit = {
    words = (d + 63) >>> 6
    Arrays.fill(rows, 0, d * words, 0L)
    if (pos.length < bound) pos = Array.fill(math.max(bound, 2 * pos.length))(-1)
    var i = 0
    while (i < d) { pos(members(i)) = i; i += 1 }
  }

  private def unplace(d: Int): Unit = { var i = 0; while (i < d) { pos(members(i)) = -1; i += 1 } }

  /** The row builder of a source: give row i of S the position of each
    * node of S that is an out-neighbour of S(i) in the DAG. The pool
    * searches build their rows apart (`poolRow`): once they had run,
    * HotSpot compiled a shared builder too big to inline into `load`.
    */
  private def fill(d: Int): Unit = {
    place(d, dag.n)
    val w = words
    var i = 0
    while (i < d) {
      val row = i * w
      var o = dag.offsets(members(i))
      val end = dag.offsets(members(i) + 1)
      while (o < end) { val j = pos(dag.adj(o)); if (j >= 0) rows(row + (j >>> 6)) |= 1L << j; o += 1 }
      i += 1
    }
    unplace(d)
  }

  /** Row i of a pool: the position of each node of S in `ns` that comes after S(i). */
  private def poolRow(i: Int, ns: Array[Int]): Unit = {
    val row = i * words
    var o = 0
    while (o < ns.length) { val j = if (ns(o) < pos.length) pos(ns(o)) else -1; if (j > i) rows(row + (j >>> 6)) |= 1L << j; o += 1 }
  }

  /** Put `u` at level 0 and make its out-neighbours that pass `valid` the
    * set S, with its rows when it has at least k − 1 nodes. Returns |S|,
    * or -1 when `u` itself is masked.
    */
  private def load(u: Int, valid: Array[Boolean]): Int = {
    if (valid != null && !valid(u)) return -1
    clique(0) = u
    reserve(dag.degree(u))
    var d = 0
    var o = dag.offsets(u)
    while (o < dag.offsets(u + 1)) {
      val v = dag.adj(o)
      if (valid == null || valid(v)) { members(d) = v; d += 1 }
      o += 1
    }
    if (d >= k - 1) fill(d)
    d
  }

  /** Put all d nodes of S in the set at `sets(at)`. */
  private def selectAll(at: Int, d: Int): Unit = {
    Arrays.fill(sets, at, at + words, -1L)
    if ((d & 63) != 0) sets(at + words - 1) = -1L >>> (64 - (d & 63))
  }

  /** Make the set after the one at `sets(at)` its intersection with row
    * v; returns its size.
    */
  private def narrow(at: Int, v: Int): Int = {
    val w = words
    var len = 0
    var j = 0
    while (j < w) {
      val y = sets(at + j) & rows(v * w + j)
      sets(at + w + j) = y
      len += java.lang.Long.bitCount(y)
      j += 1
    }
    len
  }

  /** Sum of the `r` smallest scores over the set at `sets(at)`, which has
    * at least r nodes: the least that r distinct nodes of it can add to a
    * partial sum.
    */
  private def cheapest(at: Int, r: Int): Long = {
    val low = lowest // ascending; low(0 until m) are the m smallest so far
    var m = 0
    var i = 0
    while (i < words) {
      var y = sets(at + i)
      while (y != 0) {
        val x = scores(members((i << 6) + java.lang.Long.numberOfTrailingZeros(y)))
        if (m < r || x < low(r - 1)) {
          var j = if (m < r) { m += 1; m - 1 } else r - 1
          while (j > 0 && low(j - 1) > x) { low(j) = low(j - 1); j -= 1 }
          low(j) = x
        }
        y &= y - 1
      }
      i += 1
    }
    var sum = 0L
    i = 0
    while (i < r) { sum += low(i); i += 1 }
    sum
  }

  /** The one recursion: fill `clique(level)` from the candidate set at
    * `sets(level·words)` in ascending order, then the levels below it
    * from the candidates in its row. `partial` is the score of
    * `clique(0 until level)`. At level k-1 the leaf gets the clique, with
    * its score in `leafScore`; it sets `stop` to end the search, and `rec`
    * then returns true.
    *
    * Under a prune limit, a branch that still needs r ≥ 2 nodes is cut
    * when even its r cheapest candidates would take the sum past the
    * limit; at r = 1 the leaf loop makes that test exactly.
    */
  private def rec(level: Int, partial: Long, leaf: Array[Int] => Unit): Boolean = {
    val sn = scores
    val at = level * words
    val r = k - 1 - level
    var i = 0
    while (i < words) {
      var x = sets(at + i)
      while (x != 0) {
        val v = (i << 6) + java.lang.Long.numberOfTrailingZeros(x)
        val s = if (sn == null) partial else partial + sn(members(v))
        if (s <= limit) {
          clique(level) = members(v)
          if (r == 0) {
            leafScore = s
            leaf(clique)
            if (stop) return true
          } else if (narrow(at, v) >= r && !(r >= 2 && limit != Long.MaxValue && s + cheapest(at + words, r) > limit) &&
                     rec(level + 1, s, leaf)) return true
        }
        x &= x - 1
      }
      i += 1
    }
    false
  }

  /** Start `rec` at `level` over all d nodes of S, with the given scores
    * (null: unscored) and no prune limit; a leaf may tighten `limit` as it
    * goes.
    */
  private def run(level: Int, d: Int, partial: Long, sn: Array[Long], leaf: Array[Int] => Unit): Boolean = {
    if (d < k - level) return false
    scores = sn
    limit = Long.MaxValue
    stop = false
    selectAll(level * words, d)
    rec(level, partial, leaf)
  }

  // ---------------------------------------------------------------------
  // Enumeration
  // ---------------------------------------------------------------------

  /** Visit the k-cliques that extend `prefix` with nodes of `pool`, in
    * lexicographic order of their node ids. The caller guarantees that
    * `prefix` is a clique, and that the nodes of `pool` (in any order,
    * repeats allowed) are not in `prefix` and are adjacent to all of it;
    * `neighbours(v)` holds v's neighbours, in any order. `f` gets the reused
    * clique array (prefix first) and returns true to stop; the result
    * says whether it did.
    */
  def forEachExtending(prefix: Array[Int], pool: Array[Int], neighbours: Int => Array[Int])
                      (f: Array[Int] => Boolean): Boolean = {
    val p = prefix.length
    require(p <= k, s"prefix of ${prefix.length} nodes for k=$k")
    System.arraycopy(prefix, 0, clique, 0, p)
    if (p == k) return f(clique)
    reserve(pool.length)
    System.arraycopy(pool, 0, members, 0, pool.length)
    Arrays.sort(members, 0, pool.length)
    var d = 0
    for (i <- pool.indices) if (d == 0 || members(d - 1) != members(i)) { members(d) = members(i); d += 1 }
    if (d < k - p) return false
    place(d, members(d - 1) + 1)
    for (i <- 0 until d) poolRow(i, neighbours(members(i)))
    unplace(d)
    run(p, d, 0L, null, c => stop = f(c))
  }

  /** Visit every k-clique whose highest-η node is `u`: the prefix `(u)`
    * extended by u's valid out-neighbours. The callback's array is
    * reused — copy it if you keep it.
    */
  def forEachFrom(u: Int, valid: Array[Boolean])(f: Array[Int] => Unit): Unit =
    run(1, load(u, valid), 0L, null, f)

  // ---------------------------------------------------------------------
  // Algorithm 1's FindOne: first k-clique containing u among valid nodes.
  // ---------------------------------------------------------------------

  /** Returns a fresh array (paper order: descending η along the DFS path)
    * or null if no k-clique containing `u` exists among valid nodes.
    */
  def findFirst(u: Int, valid: Array[Boolean]): Array[Int] =
    if (run(1, load(u, valid), 0L, null, _ => stop = true)) clique.clone() else null

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
    val d = load(u, valid)
    if (d < k - 1) return CliqueSearch.NoClique
    searches += 1
    this.prune = prune
    found = false
    run(1, d, sn(u), sn, minLeaf)
    if (!found) return CliqueSearch.NoClique
    System.arraycopy(best, 0, out, at, k)
    bestScore
  }

  // ---------------------------------------------------------------------
  // Per-node counts by pivoting (Jain & Seshadhri's Pivoter), without
  // visiting the cliques one by one.
  // ---------------------------------------------------------------------

  /** The current source's counts so far, by position in S. Allocated on
    * the first count, with `binom`.
    */
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
    val d = dag.maxDegree
    gained = new Array[Long](d)
    binom = new Array[Long]((d + 1) * (k + 1))
    for (a <- 0 to d) {
      binom(a * (k + 1)) = 1L
      for (b <- 1 to math.min(a, k)) binom(a * (k + 1) + b) = binom((a - 1) * (k + 1) + b - 1) + binom((a - 1) * (k + 1) + b)
    }
  }

  /** Count by pivoting the k-cliques rooted at `u` (exact modulo 2^64,
    * like any sum of Longs), without visiting them. They are u plus the
    * (k−1)-cliques of its out-list S: load S's rows, add each row's
    * transpose to make them undirected, then count from u held and P = S.
    * Leaves u's count, the number of cliques it roots, in `heldSum`, and
    * the count of S's node i in `gained(i)`; returns |S|, or 0 when u
    * roots no clique.
    */
  private def pivotFrom(u: Int): Int = {
    heldSum = 0L
    val d = dag.degree(u)
    if (d < k - 1) return 0
    if (binom == null) allocatePivoting()
    load(u, null)
    val w = words
    var at = 0
    while (at < d * w) { // word at % w of row i = at / w: add its bits' transposes
      val i = at / w
      var x = rows(at)
      while (x != 0) {
        rows((((at - i * w) << 6) + java.lang.Long.numberOfTrailingZeros(x)) * w + (i >>> 6)) |= 1L << i
        x &= x - 1
      }
      at += 1
    }
    selectAll(0, d)
    Arrays.fill(gained, 0, d, 0L)
    pivotSum = 0L
    pivot(0, d, 1, 0)
    d
  }

  /** Add to `counts` every node's number of k-cliques rooted at `u`. */
  private def countFrom(u: Int, counts: Array[Long]): Unit = {
    val d = pivotFrom(u)
    counts(u) += heldSum
    var i = 0
    while (i < d) { counts(members(i)) += gained(i); i += 1 }
  }

  /** The number of k-cliques rooted at `u`, by pivoting. */
  private[core] def rootedCount(u: Int): Long = { pivotFrom(u); heldSum }

  /** The number of v's neighbours in the set at `sets(at)`. */
  private def inP(v: Int, at: Int): Int = {
    val w = words
    var c = 0
    var j = 0
    while (j < w) { c += java.lang.Long.bitCount(rows(v * w + j) & sets(at + j)); j += 1 }
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
      i = 0
      while (i < w) {
        var x = sets(at + i) & ~rows(p * w + i)
        while (x != 0) {
          val v = (i << 6) + java.lang.Long.numberOfTrailingZeros(x)
          val len = narrow(at, v)
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

  /** Per-node counts of the cliques rooted at `sources` (node scores,
    * Definition 5, when the sources are every node), by pivoting: the part
    * function of a source pass (`SourcePass`); the `(dag, k)` form runs it
    * over every node on the calling thread.
    */
  def countPerNode(search: CliqueSearch, sources: SourcePass.Sources): Array[Long] = {
    val counts = new Array[Long](search.dag.n)
    sources.foreach(search.countFrom(_, counts))
    counts
  }

  def countPerNode(dag: CsrGraph, k: Int): Array[Long] =
    countPerNode(new CliqueSearch(dag, k), SourcePass.dealt(dag.n, 1, 0))

  /** Materialise every k-clique of the graph that `dag` orients, flat and
    * canonical (ids ascending), in lex order, in one exactly sized array.
    * The listing runs on `CsrGraph.upward(dag)`, whatever `dag`'s
    * orientation: there each clique is rooted at its smallest id and `rec`
    * picks candidates in id order, so each source's cliques come out
    * canonical and in lex order, and the sources in ascending order
    * concatenate them into lex order. The re-orientation is one O(m) pass;
    * it keeps callers that hand over another orientation, such as the
    * benchmark's GC layer with its by-score DAG, on the same sequence.
    *
    * Two `SourcePass.onDriver` passes on the driver's cores: the first
    * counts each 64-source block's cliques by pivoting, without visiting
    * them; their prefix sums give each block its slice of the result, and
    * the second lists each block's cliques into its slice. The result is
    * the same on any number of workers. τ·k over `Int.MaxValue` throws
    * before anything is listed.
    */
  def listAll(dag: CsrGraph, k: Int): Cliques = listAll(dag, k, Runtime.getRuntime.availableProcessors)

  private[core] def listAll(dag: CsrGraph, k: Int, workers: Int): Cliques = {
    val up = CsrGraph.upward(dag)
    val block = SourcePass.Block
    // the cliques of block b at start(b + 1), then, summed, block b's first clique at start(b)
    val start = new Array[Long]((up.n + block - 1) / block + 1)
    SourcePass.onDriver(up, k, workers) { (search, sources) =>
      sources.foreach(u => start(u / block + 1) += search.rootedCount(u))
    }
    for (b <- 1 until start.length) start(b) += start(b - 1)
    val tau = start(start.length - 1)
    Cliques.checkSize(tau, k)
    val nodes = new Array[Int](tau.toInt * k)
    SourcePass.onDriver(up, k, workers) { (search, sources) =>
      var at = 0
      val put: Array[Int] => Unit = { c => System.arraycopy(c, 0, nodes, at, k); at += k }
      sources.foreach { u =>
        if (u % block == 0) at = start(u / block).toInt * k
        search.forEachFrom(u, null)(put)
      }
    }
    Cliques(k, nodes)
  }
}
