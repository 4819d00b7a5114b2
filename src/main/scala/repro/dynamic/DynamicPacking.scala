package repro.dynamic

import java.util.Arrays
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
    result.cliques.foreach(install)
    val t0 = System.nanoTime()
    for (id <- cliques.keys.toSeq) setCandidates(id, candidatesFor(id))
    System.nanoTime() - t0
  }

  def result: DisjointResult =
    DisjointResult(k, cliques.values.toVector.map(_.sorted))

  def size: Int = cliques.size

  def indexSize: Long = index.valuesIterator.map(_.length.toLong).sum

  // ------------------------------------------------------------------
  // Candidate computation (Algorithm 5 body, per host clique)
  // ------------------------------------------------------------------

  /** All candidate k-cliques of host `cid`: k-cliques over
    * B = C ∪ N_F(C) other than C itself, containing at least one free
    * node and at least one node of C. They come ascending, in lex order.
    */
  def candidatesFor(cid: Int): Array[Array[Int]] = {
    val c = cliques(cid)
    val b = new mutable.ArrayBuilder.ofInt
    b.addAll(c)
    for (u <- c) g.foreachNeighbor(u) { v => if (cliqueOf(v) == -1) b.addOne(v) }
    val pool = b.result()
    if (pool.length == k) return Array.empty // B = C, as N_F(C) is empty
    val out = mutable.ArrayBuilder.make[Array[Int]]
    search.forEachExtending(Array.emptyIntArray, pool, g.neighbours) { q =>
      // each clique comes once, in lexicographic order, so q ascends
      var inHost = 0
      var j = 0
      while (j < k) { if (cliqueOf(q(j)) == cid) inHost += 1; j += 1 }
      // ≥1 free node is implied by inHost < k; C itself is inHost == k
      if (inHost >= 1 && inHost < k) {
        out += q.clone()
        if (out.length >= maxCandidatesPerHost)
          throw new IllegalStateException(
            s"host clique ${c.mkString(",")} reached $maxCandidatesPerHost candidates")
      }
      false
    }
    out.result()
  }

  /** Replace a host's candidate set; true when it gained a candidate. A
    * host is rebuilt only after nodes are freed or an edge is inserted,
    * and neither kills a candidate: the old set lies in the new one, so
    * the host gained exactly when its set grew.
    */
  private def setCandidates(cid: Int, next: Array[Array[Int]]): Boolean = {
    val prev = index.get(cid).fold(0)(_.length)
    if (next.isEmpty) index.remove(cid) else index(cid) = next
    next.length > prev
  }

  /** Drop the `dead` entries of the given hosts, and any set left empty. */
  private def dropFrom(hosts: Array[Int])(dead: Array[Int] => Boolean): Unit =
    for (cid <- hosts; set <- index.get(cid); live = set.filterNot(dead))
      if (live.isEmpty) index.remove(cid) else index(cid) = live

  /** The cliques owning a neighbour of a node of `xs`, ascending, each
    * once — exactly the hosts whose free-neighbourhood (and hence
    * candidate set) can involve those nodes. TrySwap queues the hosts
    * that gain in this order.
    */
  private def hostsAround(xs: Array[Int]): Array[Int] = {
    val b = new mutable.ArrayBuilder.ofInt
    for (x <- xs) g.foreachNeighbor(x) { y => if (cliqueOf(y) != -1) b.addOne(cliqueOf(y)) }
    ascendingOnce(b.result())
  }

  /** The hosts of the candidates through the edge ⟨u,v⟩, ascending, each
    * once. A candidate spans one host, so owned endpoints name their owner
    * if there is one owner. With both endpoints free, every host node of
    * such a candidate is adjacent to both: the owners of common neighbours.
    */
  private def hostsThrough(u: Int, v: Int): Array[Int] = {
    val cu = cliqueOf(u); val cv = cliqueOf(v)
    if (cu != -1 && cv != -1) Array.emptyIntArray
    else if (cu != -1 || cv != -1) Array(math.max(cu, cv))
    else {
      val b = new mutable.ArrayBuilder.ofInt
      g.foreachNeighbor(u) { w => if (cliqueOf(w) != -1 && g.hasEdge(v, w)) b.addOne(cliqueOf(w)) }
      ascendingOnce(b.result())
    }
  }

  /** `hs` sorted in place, with its repeats dropped. */
  private def ascendingOnce(hs: Array[Int]): Array[Int] = {
    Arrays.sort(hs)
    var m = 0
    for (h <- hs if m == 0 || hs(m - 1) != h) { hs(m) = h; m += 1 }
    hs.take(m)
  }

  /** Rebuild the given live hosts; returns those that gained, in order. */
  private def rebuildHosts(hosts: Array[Int]): Array[Int] =
    hosts.filter(cid => setCandidates(cid, candidatesFor(cid)))

  // ------------------------------------------------------------------
  // S mutations
  // ------------------------------------------------------------------

  /** Enter a clique into S under a new id, ascending; returns the id. */
  private def install(nodes: Array[Int]): Int = {
    val id = nextId; nextId += 1
    val arr = nodes.sorted
    cliques(id) = arr
    arr.foreach(cliqueOf(_) = id)
    id
  }

  /** Add an all-free clique to S; maintains the index. Returns its id. */
  private def addClique(nodes: Array[Int]): Int = {
    require(nodes.length == k && nodes.forall(cliqueOf(_) == -1),
      s"addClique needs $k free nodes, got ${nodes.mkString(",")}")
    val id = install(nodes)
    // the entries through its formerly free nodes sit in adjacent hosts
    dropFrom(hostsAround(cliques(id)))(_.exists(cliqueOf(_) == id))
    setCandidates(id, candidatesFor(id))
    id
  }

  /** Remove a clique from S, freeing its nodes; maintains the index.
    * Returns the hosts that gained from the freed nodes, ascending.
    */
  private[dynamic] def removeClique(cid: Int): Array[Int] = {
    val nodes = cliques.remove(cid).get
    index.remove(cid)
    nodes.foreach(cliqueOf(_) = -1)
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
      for (cands <- index.get(cid) if cands.length >= 2) {
        val sdis = DynamicPacking.bestDisjointSubset(cands, cliques(cid))
        if (sdis.length > 1) {
          swapCount += 1
          q ++= removeClique(cid)
          for (cand <- sdis) {
            val id = addClique(cand)
            if (index.contains(id)) q += id
          }
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
    val free = if (cliqueOf(u) == -1 && cliqueOf(v) == -1) firstFreeClique(Array(u, v)) else None
    free match {
      // a fully-free clique is added directly, without TrySwap (no other
      // clique gains candidates from this)
      case Some(cliqueNodes) => addClique(cliqueNodes)
      // otherwise every new candidate holds ⟨u,v⟩ (none when both nodes
      // are owned: paper, "nothing needs done")
      case None =>
        val hosts = hostsThrough(u, v)
        if (hosts.nonEmpty) trySwap(rebuildHosts(hosts))
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
  private def recoverFree(seeds: Array[Int]): Array[Int] =
    seeds.flatMap(x => if (cliqueOf(x) != -1) None else firstFreeClique(Array(x)).map(addClique))

  private def checkEdge(u: Int, v: Int): Unit =
    require(u >= 0 && u < g.n && v >= 0 && v < g.n, s"edge ($u,$v) has a node outside [0, ${g.n})")

  // ------------------------------------------------------------------
  // Clique search over a local pool of nodes
  // ------------------------------------------------------------------

  /** The one clique search of this packing, reused for every pool. */
  private val search = new CliqueSearch(k)

  /** The lexicographically first all-free k-clique containing the free
    * clique `prefix` (prefix first, then ascending ids), if any. Its pool
    * is the free nodes adjacent to all of `prefix`.
    */
  private def firstFreeClique(prefix: Array[Int]): Option[Array[Int]] = {
    val b = new mutable.ArrayBuilder.ofInt
    g.foreachNeighbor(prefix(0)) { w =>
      if (cliqueOf(w) == -1) {
        var i = 1 // hasEdge is false for w itself, so prefix nodes drop out
        while (i < prefix.length && g.hasEdge(prefix(i), w)) i += 1
        if (i == prefix.length) b.addOne(w)
      }
    }
    val pool = b.result()
    var found: Array[Int] = null
    search.forEachExtending(prefix, pool, g.neighbours) { q => found = q.clone(); true }
    Option(found)
  }
}

object DynamicPacking {

  /** A maximum disjoint subset of `cs`, ascending id arrays that each hold
    * a node of the ascending host clique `host`. Exact: include-first
    * search in input order, so ties go to the lexicographically smallest
    * list of input positions. Disjoint candidates cover distinct host
    * nodes, so a branch stops when its chosen count plus
    * min(candidates left, host nodes not yet covered) cannot beat the best.
    */
  def bestDisjointSubset(cs: Array[Array[Int]], host: Array[Int]): Array[Array[Int]] = {
    val nc = cs.length
    val hostHits = cs.map { c =>
      val hits = common(c, host)
      require(hits > 0, s"candidate ${c.mkString(",")} has no node of host ${host.mkString(",")}")
      hits
    }
    var best = List.empty[Int]
    var bestSize = 0
    // `chosen` (newest first) is disjoint, so it covers `covered` host nodes
    def rec(from: Int, chosen: List[Int], size: Int, covered: Int): Unit = {
      var i = from
      while (i < nc && size + math.min(nc - i, host.length - covered) > bestSize) {
        if (chosen.forall(c => common(cs(c), cs(i)) == 0))
          rec(i + 1, i :: chosen, size + 1, covered + hostHits(i))
        i += 1
      }
      if (size > bestSize) { best = chosen; bestSize = size }
    }
    rec(0, Nil, 0, 0)
    best.reverse.map(cs(_)).toArray
  }

  /** The number of ids two ascending arrays share, by one merge. */
  private def common(a: Array[Int], b: Array[Int]): Int = {
    var i = 0; var j = 0; var n = 0
    while (i < a.length && j < b.length)
      if (a(i) < b(j)) i += 1 else if (a(i) > b(j)) j += 1 else { n += 1; i += 1; j += 1 }
    n
  }
}
