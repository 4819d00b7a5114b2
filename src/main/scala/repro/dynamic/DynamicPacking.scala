package repro.dynamic

import java.util.Arrays
import repro.core.{CliqueSearch, CsrGraph, DisjointResult}
import scala.collection.mutable

/** Section V: dynamic maintenance of a near-optimal disjoint k-clique set.
  *
  * State:
  *  - `cliques`:   id → clique (the result set S)
  *  - `cliqueOf`:  node → owning clique id, or -1 for *free* nodes
  *  - `candidates`: per-clique candidate index (Algorithm 5) — every
  *    k-clique whose nodes are free or belong to that one clique, with at
  *    least one free and at least one clique node
  *  - `candByNode`: inverted index for surgical invalidation
  *
  * Operations: `insertEdge` (Algorithm 6), `deleteEdge` (Algorithm 7),
  * both funnelling improvement attempts through `trySwap` (Algorithm 4).
  *
  * Every clique search here runs `CliqueSearch` on the subgraph induced
  * by a small sorted pool of nodes (`poolSearch`): C ∪ N_F(C) for a
  * host's candidates, N_F(u) ∩ N_F(v) ∪ {u,v} for an inserted edge and
  * {x} ∪ N_F(x) for recovery.
  *
  * Index maintenance deviates from the paper only in granularity
  * (DESIGN.md §3.4): instead of searching for "new candidates containing
  * ⟨u,v⟩" we recompute the candidate sets of the provably sufficient set
  * of affected host cliques — tests assert the index stays identical to
  * a from-scratch Algorithm 5 construction after every update.
  */
final class DynamicPacking(val g: DynamicGraph, val k: Int) {

  type Cand = Vector[Int] // canonical ascending node ids

  /** Every host's candidate set stays below this size: `candidatesFor`
    * throws instead of truncating a set that reaches it.
    */
  val maxCandidatesPerHost: Int = 100000

  val cliqueOf: Array[Int] = Array.fill(g.n)(-1)
  val cliques = mutable.LinkedHashMap.empty[Int, Array[Int]]
  private var nextId = 0

  val candidates = mutable.HashMap.empty[Int, mutable.HashSet[Cand]]
  private val candByNode: Array[mutable.HashSet[(Int, Cand)]] =
    Array.fill(g.n)(mutable.HashSet.empty[(Int, Cand)])

  /** Number of swap rounds performed (bench statistic). */
  var swapCount: Long = 0L

  // ------------------------------------------------------------------
  // Initialisation
  // ------------------------------------------------------------------

  /** Install a statically computed S (e.g. from Lightweight) and build
    * the candidate index (Algorithm 5). Returns the index build time in
    * nanoseconds (Table VII).
    */
  def initialize(result: DisjointResult): Long = {
    require(result.k == k)
    for (c <- result.cliques) {
      val id = nextId; nextId += 1
      cliques(id) = c.clone()
      c.foreach(cliqueOf(_) = id)
    }
    val t0 = System.nanoTime()
    for (id <- cliques.keys.toSeq) setCandidates(id, candidatesFor(id))
    System.nanoTime() - t0
  }

  def result: DisjointResult =
    DisjointResult(k, cliques.values.toVector.map(_.sorted))

  def size: Int = cliques.size

  def indexSize: Long = candidates.valuesIterator.map(_.size.toLong).sum

  // ------------------------------------------------------------------
  // Candidate computation (Algorithm 5 body, per host clique)
  // ------------------------------------------------------------------

  /** All candidate k-cliques of host `cid`: k-cliques over
    * B = C ∪ N_F(C) other than C itself, containing at least one free
    * node and at least one node of C.
    */
  def candidatesFor(cid: Int): mutable.HashSet[Cand] = {
    val c = cliques(cid)
    val b = mutable.ArrayBuilder.make[Int]
    b ++= c
    for (u <- c) g.foreachNeighbor(u) { v => if (cliqueOf(v) == -1) b += v }
    val pool = sortedDistinct(b.result())
    val out = mutable.HashSet.empty[Cand]
    if (pool.length == k) return out // B = C
    val search = poolSearch(pool)
    for (r <- pool.indices) search.forEachFrom(r, null) { q =>
      // out-neighbours are the higher ids, so q (and its nodes) ascend
      var inHost = 0
      var j = 0
      while (j < k) { if (cliqueOf(pool(q(j))) == cid) inHost += 1; j += 1 }
      // ≥1 free node is implied by inHost < k; C itself is inHost == k
      if (inHost >= 1 && inHost < k) {
        out += Vector.tabulate(k)(j => pool(q(j)))
        if (out.size >= maxCandidatesPerHost)
          throw new IllegalStateException(
            s"host clique ${c.mkString(",")} reached $maxCandidatesPerHost candidates")
      }
    }
    out
  }

  /** Replace a host's candidate set, keeping candByNode in sync.
    * Returns true when the new set contains candidates absent before.
    */
  private def setCandidates(cid: Int, next: mutable.HashSet[Cand]): Boolean = {
    val prev = candidates.getOrElse(cid, mutable.HashSet.empty[Cand])
    var gained = false
    for (cand <- next) if (!prev.contains(cand)) {
      gained = true
      cand.foreach(v => candByNode(v) += ((cid, cand)))
    }
    for (cand <- prev) if (!next.contains(cand)) {
      cand.foreach(v => candByNode(v) -= ((cid, cand)))
    }
    if (next.isEmpty) candidates.remove(cid) else candidates(cid) = next
    gained
  }

  private def dropAllCandidates(cid: Int): Unit =
    setCandidates(cid, mutable.HashSet.empty[Cand])

  /** Surgically remove every index entry containing node `x` (used when
    * a free node becomes clique-owned: such entries can only die, never
    * be created, so no rebuild is needed).
    */
  private def dropCandidatesContaining(x: Int): Unit = {
    val entries = candByNode(x).toArray
    for ((cid, cand) <- entries) {
      candidates.get(cid).foreach { set =>
        if (set.remove(cand)) {
          cand.foreach(v => candByNode(v) -= ((cid, cand)))
          if (set.isEmpty) candidates.remove(cid)
        }
      }
    }
  }

  /** Host cliques owning a neighbour of `x` — exactly the cliques whose
    * free-neighbourhood (and hence candidate set) can involve `x`.
    */
  private def hostsAdjacentTo(x: Int): Set[Int] = {
    val s = mutable.HashSet.empty[Int]
    g.foreachNeighbor(x) { y => val h = cliqueOf(y); if (h != -1) s += h }
    s.toSet
  }

  /** Rebuild the given hosts from scratch; returns hosts that gained. */
  private def rebuildHosts(hosts: Iterable[Int]): Set[Int] = {
    val gained = mutable.TreeSet.empty[Int]
    for (cid <- hosts.toSeq.distinct.sorted if cliques.contains(cid)) {
      if (setCandidates(cid, candidatesFor(cid))) gained += cid
    }
    gained.toSet
  }

  // ------------------------------------------------------------------
  // S mutations
  // ------------------------------------------------------------------

  /** Add an all-free clique to S; maintains the index. Returns its id. */
  private def addClique(nodes: Seq[Int]): Int = {
    require(nodes.size == k && nodes.forall(cliqueOf(_) == -1),
      s"addClique needs $k free nodes, got ${nodes.mkString(",")}")
    val id = nextId; nextId += 1
    val arr = nodes.toArray.sorted
    cliques(id) = arr
    arr.foreach { x => cliqueOf(x) = id; dropCandidatesContaining(x) }
    setCandidates(id, candidatesFor(id))
    id
  }

  /** Remove a clique from S, freeing its nodes; maintains the index.
    * Returns the hosts that gained candidates from the freed nodes.
    */
  private def removeClique(cid: Int): Set[Int] = {
    val nodes = cliques.remove(cid).getOrElse(return Set.empty)
    dropAllCandidates(cid)
    nodes.foreach(cliqueOf(_) = -1)
    val affected = mutable.HashSet.empty[Int]
    nodes.foreach(x => affected ++= hostsAdjacentTo(x))
    rebuildHosts(affected)
  }

  // ------------------------------------------------------------------
  // Algorithm 4: TrySwap
  // ------------------------------------------------------------------

  /** Pop hosts from a FIFO queue; when ≥2 disjoint candidates of a host
    * exist, swap the host out for them (strictly growing S). Newly added
    * cliques and hosts gaining candidates re-enter the queue.
    */
  def trySwap(initial: Iterable[Int]): Unit = {
    val q = mutable.Queue.empty[Int]
    val inQueue = mutable.HashSet.empty[Int]
    def push(cid: Int): Unit = if (!inQueue.contains(cid)) { q += cid; inQueue += cid }
    initial.toSeq.distinct.sorted.foreach(push)
    // Terminates: only a swap pushes, every swap grows |S| (which is at
    // most n/k), and every pop without a swap shrinks the queue.
    while (q.nonEmpty) {
      val cid = q.dequeue()
      inQueue -= cid
      if (cliques.contains(cid)) {
        val cands = validatedCandidates(cid)
        if (cands.size >= 2) {
          val sdis = DynamicPacking.bestDisjointSubset(cands)
          if (sdis.size > 1) {
            swapCount += 1
            val gained = removeClique(cid)
            gained.foreach(push)
            for (cand <- sdis) {
              if (cand.forall(cliqueOf(_) == -1)) {
                val id = addClique(cand)
                if (candidates.contains(id)) push(id)
              }
            }
          }
        }
      }
    }
  }

  /** Candidates of a host revalidated against the current graph/state —
    * belt-and-braces: index maintenance should keep these true already.
    */
  private def validatedCandidates(cid: Int): Seq[Vector[Int]] = {
    candidates.getOrElse(cid, mutable.HashSet.empty[Cand]).toSeq
      .filter { cand =>
        cand.forall(v => cliqueOf(v) == -1 || cliqueOf(v) == cid) &&
        cand.indices.forall(i => (i + 1 until cand.length).forall(j => g.hasEdge(cand(i), cand(j))))
      }
      .sorted(DynamicPacking.candOrdering)
  }

  // ------------------------------------------------------------------
  // Algorithm 6: edge insertion
  // ------------------------------------------------------------------

  def insertEdge(u: Int, v: Int): Unit = {
    if (!g.addEdge(u, v)) return
    val cu = cliqueOf(u); val cv = cliqueOf(v)
    (cu, cv) match {
      case (-1, -1) =>
        findFreeCliqueWithEdge(u, v) match {
          case Some(cliqueNodes) =>
            // both free and a fully-free clique exists: add directly, no
            // TrySwap (no other clique gains candidates from this).
            addClique(cliqueNodes)
          case None =>
            // the new edge may create candidates for hosts seeing both
            // u and v as free neighbours
            val affected = hostsAdjacentTo(u) intersect hostsAdjacentTo(v)
            val gained = rebuildHosts(affected)
            if (gained.nonEmpty) trySwap(gained)
        }
      case (-1, h) =>
        // u free, v owned by h: new candidates must contain ⟨u,v⟩, hence
        // their non-free nodes lie in h — only h's set can change.
        val gained = rebuildHosts(Seq(h))
        if (gained.nonEmpty) trySwap(gained)
      case (h, -1) =>
        val gained = rebuildHosts(Seq(h))
        if (gained.nonEmpty) trySwap(gained)
      case _ =>
        // both nodes already owned: a candidate may not span two cliques,
        // so the index and S are untouched (paper: "nothing needs done").
        ()
    }
  }

  /** A k-clique of only free nodes containing the edge ⟨u,v⟩, if any —
    * the direct-add case of Algorithm 6. Deterministic: the
    * lexicographically first over ascending node ids.
    */
  private def findFreeCliqueWithEdge(u: Int, v: Int): Option[Seq[Int]] = {
    val b = mutable.ArrayBuilder.make[Int]
    b += u; b += v
    g.foreachNeighbor(u) { w =>
      if (w != v && cliqueOf(w) == -1 && g.hasEdge(v, w)) b += w
    }
    firstExtending(b.result(), Array(u, v))
  }

  // ------------------------------------------------------------------
  // Algorithm 7: edge deletion
  // ------------------------------------------------------------------

  def deleteEdge(u: Int, v: Int): Unit = {
    if (!g.removeEdge(u, v)) return
    val cu = cliqueOf(u); val cv = cliqueOf(v)
    if (cu != -1 && cu == cv) {
      // the deleted edge splits a clique of S
      val freed = cliques(cu).clone()
      val gained = removeClique(cu)
      // re-cover the freed region with any fully-free cliques, then give
      // hosts with fresh candidates a chance to swap (paper: push C and
      // TrySwap — recovery of C's area plus swaps on its neighbours).
      val recovered = recoverFree(freed.toSeq)
      trySwap(gained ++ recovered)
    } else {
      // candidates containing ⟨u,v⟩ die; hosts that could reference both
      // endpoints are the owners (if any) or, for two free endpoints,
      // hosts seeing both as free neighbours.
      val affected: Set[Int] =
        if (cu != -1 && cv != -1) Set.empty // two different cliques: no candidate spans them
        else if (cu != -1) Set(cu)
        else if (cv != -1) Set(cv)
        else hostsAdjacentTo(u) intersect hostsAdjacentTo(v)
      rebuildHosts(affected) // pure shrink: nothing to push
    }
  }

  /** Greedily add all-free cliques containing any of the seed nodes
    * (deterministic: ascending seeds, first-found cliques). Returns the
    * ids of the cliques added.
    */
  private def recoverFree(seeds: Seq[Int]): Seq[Int] = {
    val added = mutable.ArrayBuffer.empty[Int]
    for (x <- seeds.sorted) {
      var found = true
      while (found && cliqueOf(x) == -1) {
        found = false
        findFreeCliqueAt(x) match {
          case Some(nodes) =>
            added += addClique(nodes)
            found = true
          case None => ()
        }
      }
    }
    added.toSeq
  }

  /** First (ascending-id) all-free k-clique containing node `x`. */
  private def findFreeCliqueAt(x: Int): Option[Seq[Int]] = {
    val b = mutable.ArrayBuilder.make[Int]
    b += x
    g.foreachNeighbor(x) { w => if (cliqueOf(w) == -1) b += w }
    firstExtending(b.result(), Array(x))
  }

  // ------------------------------------------------------------------
  // Clique search over a local pool of nodes
  // ------------------------------------------------------------------

  /** node → its index in the pool being built, -1 otherwise. */
  private val poolIdx = Array.fill(g.n)(-1)
  /** Scratch adjacency of the pool being built; grows on demand. */
  private var poolAdj = new Array[Int](256)

  /** A clique search over the subgraph induced by `pool` (sorted
    * ascending, distinct), oriented so that out-neighbours are the
    * higher ids. Its cliques hold pool indices; `pool(i)` is the node.
    */
  private def poolSearch(pool: Array[Int]): CliqueSearch = {
    val p = pool.length
    for (i <- 0 until p) poolIdx(pool(i)) = i
    val offsets = new Array[Int](p + 1)
    var len = 0
    for (i <- 0 until p) {
      g.foreachNeighbor(pool(i)) { w =>
        val j = poolIdx(w)
        if (j > i) {
          if (len == poolAdj.length) poolAdj = Arrays.copyOf(poolAdj, 2 * len)
          poolAdj(len) = j
          len += 1
        }
      }
      Arrays.sort(poolAdj, offsets(i), len)
      offsets(i + 1) = len
    }
    for (x <- pool) poolIdx(x) = -1
    new CliqueSearch(new CsrGraph(p, offsets, Arrays.copyOf(poolAdj, len)), k)
  }

  /** The lexicographically first k-clique made of `prefix` and other
    * nodes of `nodes`, which holds `prefix` and nodes adjacent to all of it.
    */
  private def firstExtending(nodes: Array[Int], prefix: Array[Int]): Option[Seq[Int]] = {
    val pool = sortedDistinct(nodes)
    if (pool.length < k) return None
    val search = poolSearch(pool)
    val pre = prefix.map(Arrays.binarySearch(pool, _))
    val cand = pool.indices.filterNot(pre.contains).toArray
    var found: Seq[Int] = null
    search.forEachExtending(pre, cand, cand.length) { q => found = q.map(pool(_)).toSeq; true }
    Option(found)
  }

  /** `nodes` sorted ascending without duplicates. */
  private def sortedDistinct(nodes: Array[Int]): Array[Int] = {
    Arrays.sort(nodes)
    var w = 0
    for (x <- nodes) if (w == 0 || nodes(w - 1) != x) { nodes(w) = x; w += 1 }
    Arrays.copyOf(nodes, w)
  }
}

object DynamicPacking {

  val candOrdering: Ordering[Vector[Int]] = new Ordering[Vector[Int]] {
    override def compare(a: Vector[Int], b: Vector[Int]): Int = {
      var i = 0
      while (i < a.length && i < b.length) {
        if (a(i) != b(i)) return Integer.compare(a(i), b(i))
        i += 1
      }
      Integer.compare(a.length, b.length)
    }
  }

  /** Maximum disjoint subset of a (small) candidate list: exact search
    * for ≤ `exactLimit` cliques, greedy fewest-conflicts otherwise.
    * Deterministic given the input order.
    */
  def bestDisjointSubset(cands: Seq[Vector[Int]], exactLimit: Int = 20): Seq[Vector[Int]] = {
    val cs = cands.toIndexedSeq
    val nc = cs.length
    if (nc == 0) return Seq.empty
    val conflict = Array.ofDim[Boolean](nc, nc)
    for (i <- 0 until nc; j <- (i + 1) until nc) {
      val shared = cs(i).exists(cs(j).toSet)
      conflict(i)(j) = shared
      conflict(j)(i) = shared
    }
    if (nc <= exactLimit) {
      var best = List.empty[Int]
      def rec(idx: Int, chosen: List[Int]): Unit = {
        if (chosen.size + (nc - idx) <= best.size) return
        if (idx == nc) { if (chosen.size > best.size) best = chosen; return }
        if (chosen.forall(c => !conflict(c)(idx))) rec(idx + 1, idx :: chosen)
        rec(idx + 1, chosen)
      }
      rec(0, Nil)
      best.reverse.map(cs(_))
    } else {
      val degree = (0 until nc).map(i => conflict(i).count(identity))
      val order = (0 until nc).sortBy(i => (degree(i), cs(i)))(
        Ordering.Tuple2(Ordering.Int, candOrdering))
      val taken = mutable.ArrayBuffer.empty[Int]
      for (i <- order) if (taken.forall(t => !conflict(t)(i))) taken += i
      taken.sorted.map(cs(_)).toSeq
    }
  }
}
