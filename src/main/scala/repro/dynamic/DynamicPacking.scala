package repro.dynamic

import java.util.Arrays
import java.util.function.IntFunction
import repro.core.{CliqueSearch, DisjointResult, Validation}
import scala.collection.mutable

/** Section V: dynamic maintenance of a near-optimal disjoint k-clique set.
  *
  * State:
  *  - `cliques`:   id → clique, node ids ascending (the result set S)
  *  - `cliqueOf`:  node → owning clique id, or -1 for *free* nodes
  *  - `index`:    per-clique candidate index (Algorithm 5) — every
  *    k-clique whose nodes are free or belong to that one clique, with at
  *    least one free and at least one clique node, as ascending node-id
  *    arrays in lex order; no empty sets are kept
  *
  * Operations: `insertEdge` (Algorithm 6), `deleteEdge` (Algorithm 7),
  * both funnelling improvement attempts through `trySwap` (Algorithm 4).
  *
  * Every clique search here is `CliqueSearch.forEachExtending` on one
  * search per packing, over a sorted pool of nodes whose bitset rows it
  * fills from `g`: C ∪ N_F(C) for a host's candidates, and the free nodes
  * adjacent to all of a prefix for a free clique through an inserted edge
  * or a freed node.
  *
  * The index follows one rule: an update touches the hosts around the
  * nodes that change owner (`hostsAround`) or through the edge that
  * changes (`hostsThrough`). A host that can gain (nodes freed, an edge
  * inserted) is rebuilt, instead of searching for the new candidates only
  * (DESIGN.md §3.4); a host that can lose (nodes taken, an edge deleted)
  * has its dead entries filtered out. Tests assert the index stays
  * identical to a from-scratch Algorithm 5 construction after every update.
  */
final class DynamicPacking(val g: DynamicGraph, val k: Int) {

  /** Every host's candidate set stays below this size: `candidatesFor`
    * throws instead of truncating a set that reaches it.
    */
  val maxCandidatesPerHost: Int = 100000

  val cliqueOf: Array[Int] = Array.fill(g.n)(-1)
  val cliques = mutable.LinkedHashMap.empty[Int, Array[Int]]
  private var nextId = 0

  private[dynamic] val index = mutable.HashMap.empty[Int, Array[Array[Int]]]

  /** `index` as sets of node-id vectors: a read-only view that builds a
    * host's set each time it is read.
    */
  def candidates: collection.MapView[Int, collection.Set[Vector[Int]]] =
    index.view.mapValues(_.iterator.map(_.toVector).toSet)

  /** Number of swap rounds performed (bench statistic). */
  var swapCount: Long = 0L

  /** Hosts rebuilt, and index entries gained (a rebuild's growth, a new
    * host's whole set) and dropped (filtered, or removed with their host).
    */
  var hostsRebuilt: Long = 0L
  var entriesGained: Long = 0L
  var entriesDropped: Long = 0L

  // ------------------------------------------------------------------
  // Initialisation
  // ------------------------------------------------------------------

  /** Install a statically computed S (e.g. from Lightweight) into an
    * empty packing and build the candidate index (Algorithm 5). Returns
    * the index build time in nanoseconds (Table VII). Throws
    * `IllegalArgumentException` when `Validation.validate` rejects S.
    */
  def initialize(result: DisjointResult): Long = {
    require(result.k == k && cliques.isEmpty, s"S of ${result.k}-cliques into a k=$k packing holding $size")
    Validation.validate(g.n, g.hasEdge, result).foreach(err => throw new IllegalArgumentException(err))
    val first = nextId
    result.cliques.foreach(install)
    val t0 = System.nanoTime()
    for (id <- first until nextId) rebuild(id)
    System.nanoTime() - t0
  }

  /** S, each clique a copy of its ascending node ids. */
  def result: DisjointResult =
    DisjointResult(k, cliques.values.toVector.map(_.clone()))

  def size: Int = cliques.size

  def indexSize: Long = index.valuesIterator.map(_.length.toLong).sum

  // ------------------------------------------------------------------
  // Candidate computation (Algorithm 5 body, per host clique)
  // ------------------------------------------------------------------

  /** All candidate k-cliques of host `cid`: k-cliques over
    * B = C ∪ N_F(C) other than C itself, containing at least one free
    * node and at least one node of C. They come ascending, in lex order.
    */
  def candidatesFor(cid: Int): Array[Array[Int]] = candidatesFor(cid, DynamicPacking.NoCandidates)

  /** `candidatesFor(cid)`, with each entry that equals one of `kept` (in
    * lex order) taken from `kept`, not copied anew. Throws
    * `IllegalStateException` if an entry of `kept` is not a candidate.
    */
  private def candidatesFor(cid: Int, kept: Array[Array[Int]]): Array[Array[Int]] = {
    val c = cliques(cid)
    val pool = around(c, common = false, owners = false, c)
    if (pool.length == k && kept.length == 0) return kept // B = C, as N_F(C) is empty
    var n = 0 // candidates so far, in `listed`
    var j = 0 // entries of `kept` met so far
    search.forEachExtending(Array.emptyIntArray, pool, neighbours) { q =>
      // each clique comes once, in lexicographic order, so q ascends;
      // ≥1 free node is implied by inHost < k; C itself is inHost == k
      val inHost = owned(q, cid)
      if (inHost >= 1 && inHost < k) {
        if (n == listed.length) listed = Arrays.copyOf(listed, 2 * n)
        if (j < kept.length && Arrays.equals(kept(j), q)) { listed(n) = kept(j); j += 1 } else listed(n) = q.clone()
        n += 1
        if (n >= maxCandidatesPerHost)
          throw new IllegalStateException(
            s"host clique ${c.mkString(",")} reached $maxCandidatesPerHost candidates")
      }
      false
    }
    // a kept entry that was not met stops every later one being met
    if (j < kept.length)
      throw new IllegalStateException(s"host clique ${c.mkString(",")} lost its candidate ${kept(j).mkString(",")}")
    Arrays.copyOf(listed, n)
  }

  /** `candidatesFor`'s scratch, grown to the largest set so far. */
  private var listed = new Array[Array[Int]](64)

  /** Rebuild a host's candidate set in place of its old one, whose entries
    * it keeps; true when it gained a candidate. A live host is rebuilt
    * only after nodes are freed or an edge is inserted, and neither kills
    * a candidate: the old set lies in the new one (`candidatesFor` throws
    * otherwise), so the host gained exactly when its set grew.
    */
  private def rebuild(cid: Int): Boolean = {
    val prev = index.getOrElse(cid, DynamicPacking.NoCandidates)
    val next = candidatesFor(cid, prev)
    if (next.length == 0) index.remove(cid) else index(cid) = next
    entriesGained += next.length - prev.length
    next.length > prev.length
  }

  /** Drop the `dead` entries of the given hosts, and any set left empty. */
  private def dropFrom(hosts: Array[Int])(dead: Array[Int] => Boolean): Unit = {
    var h = 0
    while (h < hosts.length) {
      val set = index.getOrElse(hosts(h), DynamicPacking.NoCandidates)
      var live = 0; var i = 0
      while (i < set.length) { if (!dead(set(i))) { set(live) = set(i); live += 1 }; i += 1 }
      if (live < set.length) {
        entriesDropped += set.length - live
        if (live == 0) index.remove(hosts(h)) else index(hosts(h)) = Arrays.copyOf(set, live)
      }
      h += 1
    }
  }

  /** The number of nodes of `q` owned by clique `id` (-1: free nodes). */
  private def owned(q: Array[Int], id: Int): Int = {
    var n = 0; var j = 0
    while (j < q.length) { if (cliqueOf(q(j)) == id) n += 1; j += 1 }
    n
  }

  /** The cliques owning a neighbour of a node of `xs`, ascending, each
    * once — exactly the hosts whose free-neighbourhood (and hence
    * candidate set) can involve those nodes. TrySwap queues the hosts
    * that gain in this order.
    */
  private def hostsAround(xs: Array[Int]): Array[Int] =
    ascendingOnce(around(xs, common = false, owners = true, Array.emptyIntArray))

  /** The hosts of the candidates through the edge ⟨u,v⟩, ascending, each
    * once. A candidate spans one host, so owned endpoints name their owner
    * if there is one owner. With both endpoints free, every host node of
    * such a candidate is adjacent to both: the owners of common neighbours.
    */
  private def hostsThrough(u: Int, v: Int): Array[Int] = {
    val cu = cliqueOf(u); val cv = cliqueOf(v)
    if (cu != -1 && cv != -1) Array.emptyIntArray
    else if (cu != -1 || cv != -1) Array(math.max(cu, cv))
    else ascendingOnce(around(Array(u, v), common = true, owners = true, Array.emptyIntArray))
  }

  /** `lead`, then for each neighbour y of a node of `xs` (with `common`:
    * of xs(0), and adjacent to all of `xs`), y itself when it is free
    * (`owners` false) or its owner when it is owned (`owners` true). The
    * one neighbourhood scan of the update path: pools and host lists. It
    * collects them in `scan`, which grows to the longest scan so far.
    */
  private def around(xs: Array[Int], common: Boolean, owners: Boolean, lead: Array[Int]): Array[Int] = {
    val scanned = if (common) 1 else xs.length // y must be adjacent to xs(scanned until xs.length)
    var m = lead.length
    var i = 0
    while (i < scanned) { m += g.neighbours(xs(i)).length; i += 1 }
    if (scan.length < m) scan = new Array[Int](math.max(m, 2 * scan.length))
    val out = scan
    System.arraycopy(lead, 0, out, 0, lead.length)
    m = lead.length
    i = 0
    while (i < scanned) {
      val row = g.neighbours(xs(i))
      var j = 0
      while (j < row.length) {
        val y = row(j); val o = cliqueOf(y)
        if ((o != -1) == owners) {
          var a = scanned // hasEdge(y, y) is false, so nodes of `xs` drop out
          while (a < xs.length && g.hasEdge(xs(a), y)) a += 1
          if (a == xs.length) { out(m) = if (owners) o else y; m += 1 }
        }
        j += 1
      }
      i += 1
    }
    Arrays.copyOf(out, m)
  }

  private var scan = new Array[Int](64)

  /** `hs` sorted in place, then its first copy of each id. */
  private def ascendingOnce(hs: Array[Int]): Array[Int] = {
    Arrays.sort(hs)
    var d = 0; var i = 0
    while (i < hs.length) { if (d == 0 || hs(d - 1) != hs(i)) { hs(d) = hs(i); d += 1 }; i += 1 }
    Arrays.copyOf(hs, d)
  }

  /** Rebuild the given live hosts; returns those that gained, in order,
    * compacted in `hosts` itself.
    */
  private def rebuildHosts(hosts: Array[Int]): Array[Int] = {
    var m = 0; var i = 0
    while (i < hosts.length) { if (rebuild(hosts(i))) { hosts(m) = hosts(i); m += 1 }; i += 1 }
    hostsRebuilt += hosts.length
    Arrays.copyOf(hosts, m)
  }

  // ------------------------------------------------------------------
  // S mutations
  // ------------------------------------------------------------------

  /** Make clique `id` (-1: none) the owner of every node of `nodes`. */
  private def assign(nodes: Array[Int], id: Int): Unit = { var i = 0; while (i < nodes.length) { cliqueOf(nodes(i)) = id; i += 1 } }

  /** Enter a clique into S under a new id, ascending; returns the id. */
  private def install(nodes: Array[Int]): Int = {
    val id = nextId; nextId += 1
    val arr = nodes.clone()
    Arrays.sort(arr)
    cliques(id) = arr
    assign(arr, id)
    id
  }

  /** Add an all-free clique to S; maintains the index. Returns its id. */
  private def addClique(nodes: Array[Int]): Int = {
    if (nodes.length != k || owned(nodes, -1) != k)
      throw new IllegalArgumentException(s"requirement failed: addClique needs $k free nodes, got ${nodes.mkString(",")}")
    val id = install(nodes)
    // the entries through its formerly free nodes sit in adjacent hosts
    dropFrom(hostsAround(cliques(id)))(owned(_, id) > 0)
    rebuild(id)
    id
  }

  /** Remove a clique from S, freeing its nodes; maintains the index.
    * Returns the hosts that gained from the freed nodes, ascending.
    */
  private[dynamic] def removeClique(cid: Int): Array[Int] = {
    val nodes = cliques.remove(cid).get
    entriesDropped += index.remove(cid).fold(0)(_.length)
    assign(nodes, -1)
    rebuildHosts(hostsAround(nodes))
  }

  // ------------------------------------------------------------------
  // Algorithm 4: TrySwap
  // ------------------------------------------------------------------

  /** Pop hosts from a FIFO queue, the ascending `initial` first; when ≥2
    * disjoint candidates of a host exist, swap the host out for them
    * (strictly growing S). New cliques and gaining hosts re-enter it
    * unless queued: the queue is an insertion-ordered set.
    */
  private def trySwap(initial: Array[Int]): Unit = {
    val q = mutable.LinkedHashSet.empty[Int]
    q ++= initial
    // Terminates: only a swap pushes, every swap grows |S| (which is at
    // most n/k), and every pop without a swap shrinks the queue.
    while (q.nonEmpty) {
      val cid = q.head
      q -= cid
      // the index is exact, so a host with candidates is still in S and
      // every candidate is a live k-clique of free and host nodes
      val cands = index.getOrElse(cid, null)
      if (cands != null && cands.length >= 2) {
        val sdis = DynamicPacking.bestDisjointSubset(cands, cliques(cid))
        if (sdis.length > 1) {
          swapCount += 1
          q ++= removeClique(cid)
          var i = 0
          while (i < sdis.length) { val id = addClique(sdis(i)); if (index.contains(id)) q += id; i += 1 }
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Algorithm 6: edge insertion
  // ------------------------------------------------------------------

  def insertEdge(u: Int, v: Int): Unit = {
    checkEdge(u, v)
    if (!g.addEdge(u, v)) return
    val free = if (cliqueOf(u) == -1 && cliqueOf(v) == -1) firstFreeClique(Array(u, v)) else null
    // a fully-free clique is added directly, without TrySwap (no other
    // clique gains candidates from this)
    if (free != null) addClique(free)
    else {
      // otherwise every new candidate holds ⟨u,v⟩ (none when both nodes
      // are owned: paper, "nothing needs done")
      val hosts = hostsThrough(u, v)
      if (hosts.length > 0) trySwap(rebuildHosts(hosts))
    }
  }

  // ------------------------------------------------------------------
  // Algorithm 7: edge deletion
  // ------------------------------------------------------------------

  def deleteEdge(u: Int, v: Int): Unit = {
    checkEdge(u, v)
    if (!g.removeEdge(u, v)) return
    val cu = cliqueOf(u)
    if (cu != -1 && cu == cliqueOf(v)) {
      // the deleted edge splits a clique of S
      val freed = cliques(cu)
      // re-cover the freed region with any fully-free cliques, then give
      // hosts with fresh candidates a chance to swap (paper: push C and
      // TrySwap — recovery of C's area plus swaps on its neighbours).
      // A recovered clique's id is newer than every host's, so the
      // queue's input still ascends.
      trySwap(removeClique(cu) ++ recoverFree(freed))
    } else {
      // S is intact: exactly the candidates containing ⟨u,v⟩ die, and a
      // deletion creates none, so nothing is pushed
      dropFrom(hostsThrough(u, v))(c => Arrays.binarySearch(c, u) >= 0 && Arrays.binarySearch(c, v) >= 0)
    }
  }

  /** For each ascending seed node still free, add the first all-free
    * k-clique containing it, if any. Returns the ids added.
    */
  private def recoverFree(seeds: Array[Int]): Array[Int] = {
    val ids = new mutable.ArrayBuilder.ofInt
    for (i <- seeds.indices) {
      val c = if (cliqueOf(seeds(i)) == -1) firstFreeClique(Array(seeds(i))) else null
      if (c != null) ids += addClique(c)
    }
    ids.result()
  }

  private def checkEdge(u: Int, v: Int): Unit =
    require(u >= 0 && u < g.n && v >= 0 && v < g.n, s"edge ($u,$v) has a node outside [0, ${g.n})")

  // ------------------------------------------------------------------
  // Clique search over a local pool of nodes
  // ------------------------------------------------------------------

  /** The one clique search of this packing, reused for every pool. */
  private val search = new CliqueSearch(k)

  /** The rows of `g` as the search reads them. */
  private val neighbours: IntFunction[Array[Int]] = g.neighbours(_)

  /** The lexicographically first all-free k-clique containing the free
    * clique `prefix` (prefix first, then ascending ids), or null if there
    * is none. Its pool is the free nodes adjacent to all of `prefix`.
    */
  private def firstFreeClique(prefix: Array[Int]): Array[Int] = {
    var found: Array[Int] = null
    val pool = around(prefix, common = true, owners = false, Array.emptyIntArray)
    search.forEachExtending(prefix, pool, neighbours) { q => found = q.clone(); true }
    found
  }
}

object DynamicPacking {

  private val NoCandidates = new Array[Array[Int]](0)

  /** A maximum disjoint subset of `cs`, ascending id arrays that each hold
    * a node of the ascending host clique `host`. Exact: include-first
    * search in input order, so ties go to the lexicographically smallest
    * list of input positions. Disjoint candidates cover distinct host
    * nodes, so a branch stops when its chosen count plus
    * min(candidates left, host nodes not yet covered) cannot beat the best,
    * and no subset holds more than `host.length` of them.
    */
  def bestDisjointSubset(cs: Array[Array[Int]], host: Array[Int]): Array[Array[Int]] = {
    val nc = cs.length
    val hostHits = new Array[Int](nc)
    for (i <- 0 until nc) {
      hostHits(i) = common(cs(i), host)
      if (hostHits(i) == 0) throw new IllegalArgumentException(
        s"requirement failed: candidate ${cs(i).mkString(",")} has no node of host ${host.mkString(",")}")
    }
    // stacks: chosen(0 until size) is disjoint, in input order, and covers
    // `covered` host nodes; best(0 until bestSize) is the best so far
    val chosen = new Array[Array[Int]](host.length)
    val best = new Array[Array[Int]](host.length)
    var bestSize = 0
    def rec(from: Int, size: Int, covered: Int): Unit = {
      var i = from
      while (i < nc && size + math.min(nc - i, host.length - covered) > bestSize) {
        var j = 0
        while (j < size && common(chosen(j), cs(i)) == 0) j += 1
        if (j == size) { chosen(size) = cs(i); rec(i + 1, size + 1, covered + hostHits(i)) }
        i += 1
      }
      if (size > bestSize) { System.arraycopy(chosen, 0, best, 0, size); bestSize = size }
    }
    rec(0, 0, 0)
    Arrays.copyOf(best, bestSize)
  }

  /** The number of ids two ascending arrays share, by one merge. */
  private def common(a: Array[Int], b: Array[Int]): Int = {
    var i = 0; var j = 0; var n = 0
    while (i < a.length && j < b.length)
      if (a(i) < b(j)) i += 1 else if (a(i) > b(j)) j += 1 else { n += 1; i += 1; j += 1 }
    n
  }
}
