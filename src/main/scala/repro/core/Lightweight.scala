package repro.core

import java.util.Arrays
import java.util.concurrent.atomic.AtomicLongArray
import java.util.concurrent.locks.LockSupport

/** L / LP — Algorithm 3, the lightweight implementation.
  *
  * Produces the same S as GC (Theorem 4, with the fixed (score, canon)
  * total clique ordering and `PruneMode.Strict`) without storing all
  * cliques: a min-heap holds, per source node u, the locally minimal
  * clique among N⁺(u); stale entries (a member node was claimed) trigger
  * a lazy `FindMin` recomputation on the residual graph.
  *
  *  - L  = `PruneMode.NoPrune`
  *  - LP = `PruneMode.Paper` (the paper's `≥` score-driven pruning)
  *
  * The heap never holds two entries for one source: HeapInit pushes at
  * most one per source, a stale pop re-pushes only for its own source, and
  * a taken clique pushes nothing. So each source u has one slot, its
  * score and its canonical clique at `nodes[u·k, (u+1)·k)`, and the heap
  * is an int heap of sources with their scores inline. Keys are unique (a
  * clique has one source), so the pop sequence does not depend on the heap
  * layout.
  *
  * HeapInit keeps the bitset rows it builds for each source of out-degree
  * ≤ 64 (`CliqueSearch.rowCache`), and the loop's `FindMin` reads them. On
  * a machine with more than one core, the other cores compute stale
  * recomputes ahead of the loop (`Speculation`), which installs one only
  * when it is provably the result it would compute itself: the pop
  * sequence, S and the Stats are those of the sequential loop.
  *
  * O(n+m) space: 8n + 4kn + 4n + 8n bytes for scores, slots, heap and its
  * keys, and 8m bytes for the row cache; with helpers, 16n for the
  * per-node change index and ring references, and a ring of at most 2^14
  * entries of 65 bytes (k ≤ 8).
  */
object Lightweight {

  /** Counters exposed for the benches (pruning effectiveness). */
  final case class Stats(findMinCalls: Long, heapPushes: Long, stalePops: Long)

  /** Fails when n slots of k ids would not fit one `Int`-indexed array. */
  def checkSize(n: Int, k: Int): Unit =
    if (n.toLong * k > Int.MaxValue)
      throw new IllegalStateException(
        s"$n sources of k=$k need ${n.toLong * k} slot ids, over Int.MaxValue for the slot array")

  /** L or LP on node scores `sn` from the caller (line 2, Definition 5),
    * with a helper on every core but the caller's.
    */
  def run(g: CsrGraph, k: Int, sn: Array[Long], prune: PruneMode): (DisjointResult, Stats) =
    run(g, k, sn, prune, Runtime.getRuntime.availableProcessors - 1, ringFor(g.n))

  /** `run` with `helpers` pool threads speculating on a ring of `ring`
    * entries (a power of two); 0 helpers run the plain loop.
    */
  private[core] def run(g: CsrGraph, k: Int, sn: Array[Long], prune: PruneMode,
                        helpers: Int, ring: Int): (DisjointResult, Stats) = {
    require(sn.length == g.n, s"node scores cover ${sn.length} nodes, the graph has ${g.n}")
    checkSize(g.n, k)
    // Lines 3-4: score ordering, DAG orientation.
    val rank = Orderings.byScore(sn)
    val dag = CsrGraph.orient(g, rank)

    // HeapInit, then one O(n) heapify over the sources that root a clique.
    val (score, nodes, rows) = heapInit(dag, k, sn, prune, Runtime.getRuntime.availableProcessors)
    var findMinCalls = 0L // HeapInit's; the loop's are `search.searches` and the installed ones
    val heap = new SlotHeap(nodes, k, g.n)
    var u = 0
    while (u < g.n) {
      if (dag.degree(u) >= k - 1) findMinCalls += 1
      if (score(u) != CliqueSearch.NoClique) heap.add(u, score(u))
      u += 1
    }
    heap.heapify()
    var pushes = heap.size.toLong
    var stale = 0L

    // Lines 31-39: Calculation.
    val search = new CliqueSearch(dag, k)
    search.rowCache = rows
    val valid = Array.fill(g.n)(true)
    val spec = if (helpers > 0) new Speculation(g, dag, k, sn, prune, rows, valid, score, nodes, ring) else null
    val out = Vector.newBuilder[Array[Int]]
    def loop(): Unit = while (heap.size > 0) {
      val src = heap.top
      val at = src * k
      var allValid = true
      var i = 0
      while (i < k && allValid) { if (!valid(nodes(at + i))) allValid = false; i += 1 }
      if (allValid) {
        out += Arrays.copyOfRange(nodes, at, at + k)
        i = 0
        while (i < k) { valid(nodes(at + i)) = false; i += 1 }
        heap.pop()
        if (spec != null) spec.selected(at)
      } else {
        stale += 1
        // src = highest-η node of the stale clique (FindMin roots every
        // clique at its source); recompute its local minimum on the
        // residual graph in place (a FindMin call when src is still free
        // with k − 1 valid out-neighbours, counted by `search.searches`),
        // unless a helper already has.
        if (spec == null || !spec.install(src)) score(src) = search.findMin(src, valid, sn, prune, nodes, at)
        if (spec != null) spec.pushed(src)
        if (score(src) != CliqueSearch.NoClique) { pushes += 1; heap.replaceTop(score(src)) }
        else heap.pop()
      }
    }
    if (spec == null) loop()
    else SourcePass.alongside(helpers, () => spec.help())(loop())(spec.stop())
    val installed = if (spec == null) 0L else spec.installedSearches
    (DisjointResult(k, out.result()), Stats(findMinCalls + search.searches + installed, pushes, stale))
  }

  /** The speculation ring for n nodes: n rounded up to a power of two,
    * from 64 to 2^14 entries.
    */
  private[core] def ringFor(n: Int): Int = Integer.highestOneBit(math.min(math.max(n, 64), 1 << 14) * 2 - 1)

  /** LP on node scores counted on the driver. perfbench's LP ≤ OPT ≤ k·LP
    * check calls this form; every other caller passes its own scores.
    */
  def run(g: CsrGraph, k: Int): (DisjointResult, Stats) =
    run(g, k, CliqueSearch.countPerNode(CsrGraph.orient(g, Orderings.byId(g.n)), k), PruneMode.Paper)

  /** Lines 6, 10-14: HeapInit — the local minimum of every source, in one
    * `SourcePass.onDriver` pass on `workers` driver threads. Returns the
    * slots: u's score, or `CliqueSearch.NoClique`, and u's clique at
    * `nodes[u·k, (u+1)·k)`; and the row cache its searches fill.
    */
  private[core] def heapInit(dag: CsrGraph, k: Int, sn: Array[Long], prune: PruneMode,
                             workers: Int): (Array[Long], Array[Int], Array[Long]) = {
    val score = new Array[Long](dag.n)
    val nodes = new Array[Int](dag.n * k)
    val rows = new Array[Long](dag.adjSize)
    SourcePass.onDriver(dag, k, workers) { (search, sources) =>
      search.rowCache = rows
      sources.foreach(u => score(u) = search.findMin(u, null, sn, prune, nodes, u * k))
    }
    (score, nodes, rows)
  }

  /** Binary min-heap of sources, keyed by their slots' (score, canon); the
    * scores sit beside the sources in heap order, so only ties read a slot.
    */
  private final class SlotHeap(nodes: Array[Int], k: Int, n: Int) {
    private val heap = new Array[Int](n)
    private val keys = new Array[Long](n)
    var size = 0

    private def less(ka: Long, a: Int, kb: Long, b: Int): Boolean =
      if (ka != kb) ka < kb
      else Arrays.compare(nodes, a * k, a * k + k, nodes, b * k, b * k + k) < 0

    def add(u: Int, key: Long): Unit = { heap(size) = u; keys(size) = key; size += 1 }
    def top: Int = heap(0)
    def heapify(): Unit = { var i = size / 2 - 1; while (i >= 0) { siftDown(i); i -= 1 } }
    /** Restore order after the top's slot changed to score `key`. */
    def replaceTop(key: Long): Unit = { keys(0) = key; siftDown(0) }
    def pop(): Unit = { size -= 1; heap(0) = heap(size); keys(0) = keys(size); siftDown(0) }

    private def siftDown(i0: Int): Unit = {
      val u = heap(i0)
      val key = keys(i0)
      var i = i0
      var c = 2 * i + 1
      while (c < size) {
        if (c + 1 < size && less(keys(c + 1), heap(c + 1), keys(c), heap(c))) c += 1
        if (less(keys(c), heap(c), key, u)) { heap(i) = heap(c); keys(i) = keys(c); i = c; c = 2 * i + 1 }
        else c = size
      }
      heap(i) = u
      keys(i) = key
    }
  }

  /** Stale recomputes ahead of the selection loop (speculate, then
    * validate; Blelloch, Fineman, Gibbons, Shun, PPoPP 2012).
    *
    * `FindMin` of source w depends only on the valid bits of {w} ∪ N⁺(w).
    * When a selection claims a node v, each live source w whose slot holds
    * v has just gone stale: w is an in-neighbour of v, which one merge of
    * v's id-sorted neighbours in `g` and in `dag` lists, and a 32-bit
    * signature of w's slot says whether it holds v (with few false alarms,
    * which cost speculative work, never an output). The loop queues w, once per stale
    * slot, on a ring of `size` entries, and a helper computes w's `FindMin`
    * against the shared `valid` array, stamped with the number of
    * selections it was sure to see. The loop keeps, per node w, the last
    * selection since w's last push that claimed a node of {w} ∪ N⁺(w); at
    * w's stale pop it installs the helper's result only if that selection
    * is not past the stamp: then the helper read exactly the bits the loop
    * would read now.
    *
    * Memory order: the loop writes `valid` before it publishes the
    * selection count (a release store, read by the helpers with acquire),
    * and writes an entry's source before it publishes the ring's tail; a
    * helper publishes its result by a release store of the entry's
    * sequence number, which the loop reads with acquire before it reads
    * the result. The loop reuses an entry only once a helper has finished
    * it and the loop has dropped its own reference to it; it reads what the
    * helpers write only to install a result and, on reuse, to learn
    * whether a helper has finished an entry it did not install.
    */
  private final class Speculation(g: CsrGraph, dag: CsrGraph, k: Int, sn: Array[Long], prune: PruneMode,
                                  rows: Array[Long], valid: Array[Boolean], score: Array[Long],
                                  nodes: Array[Int], size: Int) {
    require(Integer.bitCount(size) == 1, s"the ring size must be a power of two, got $size")
    private val mask = size - 1

    // The loop's own state.
    /** Per node w, both words in one cache line:
      *  - at 2w: in bits 0-30 the last selection (1, 2, …) since w's last
      *    push that claimed a node of {w} ∪ N⁺(w), or 0; bit 31 (`Stale`)
      *    set from when w's slot goes stale (w is queued then), or while w
      *    roots no slot; in bits 32-63 the signature of w's slot, bit
      *    32 + (v mod 32) for each of its nodes v;
      *  - at 2w + 1: 1 + the sequence number of the entry the loop holds
      *    for w, or 0.
      */
    private val state = new Array[Long](2 * g.n)
    private final val Stale = 1L << 31
    private final val Changes = Int.MaxValue.toLong
    for (u <- 0 until g.n) pushed(u)
    /** Entries the loop has installed from, or never issued: free to reuse. */
    private val free = Array.fill(size)(true)
    /** Entries issued; and published to the helpers. */
    private var tail = 0L
    private var shown = 0L
    private var selections = 0
    /** Installed results whose search the sequential loop would have counted. */
    var installedSearches = 0L

    // Shared with the helpers. Entry i is the `stride` words from i·stride,
    // 64 bytes for k ≤ 8: the sequence number a helper finished it with
    // (-1 before), its source, its stamp·2 + 1 if it searched, its score,
    // and its clique's ids, two to a word.
    private val stride = (4 + (k + 1) / 2 + 7) & ~7
    private val entries = new AtomicLongArray(size * stride)
    for (i <- 0 until size) entries.set(i * stride, -1L)
    /** The published tail and selection count, and the helpers' next entry
      * a cache line apart.
      */
    private val counters = new AtomicLongArray(24)
    private final val Published = 0
    private final val Stamp = 1
    private final val Taken = 16
    @volatile private var stopped = false

    /** After the loop took the clique at `nodes[at, at+k)` and cleared its
      * valid bits: record the change, publish the selection, and queue each
      * live source whose slot it has just made stale.
      */
    def selected(at: Int): Unit = {
      selections += 1
      val mark = Stale | selections
      var i = 0
      while (i < k) { state(2 * nodes(at + i)) = mark; i += 1 }
      i = 0
      while (i < k) {
        val v = nodes(at + i)
        val bit = 1L << (32 + (v & 31))
        var o = g.offsets(v)
        val end = g.offsets(v + 1)
        var d = dag.offsets(v)
        val dEnd = dag.offsets(v + 1)
        while (o < end) {
          val w = g.adj(o)
          while (d < dEnd && dag.adj(d) < w) d += 1
          if (d < dEnd && dag.adj(d) == w) d += 1 // w ∈ N⁺(v)
          else { // v ∈ N⁺(w)
            val s = state(2 * w)
            if ((s & Stale) != 0 || (s & bit) == 0) state(2 * w) = s & ~Changes | selections
            else { state(2 * w) = mark; queue(w) } // w's slot holds v, or a node of v's signature bit
          }
          o += 1
        }
        i += 1
      }
      if (tail != shown) { // helpers read the selection count only as they serve an entry
        shown = tail
        counters.setRelease(Stamp, selections)
        counters.setRelease(Published, tail)
      }
    }

    /** After `src`'s slot was set: its signature, or `Stale` when it roots
      * no clique. Any entry for `src` queued from now on is stamped with a
      * later selection, so the changes so far no longer count.
      */
    def pushed(src: Int): Unit =
      if (score(src) == CliqueSearch.NoClique) state(2 * src) = Stale
      else {
        var sig = 0L
        var i = src * k
        while (i < src * k + k) { sig |= 1L << (32 + (nodes(i) & 31)); i += 1 }
        state(2 * src) = sig
      }

    /** Issue the next entry for `w`, unless a helper still holds it. */
    private def queue(w: Int): Unit = {
      val i = (tail & mask).toInt
      val at = i * stride
      if (!free(i)) {
        val last = tail - size
        if (entries.getAcquire(at) != last) return
        val old = entries.getPlain(at + 1).toInt
        if (state(2 * old + 1) == last + 1) state(2 * old + 1) = 0L
        free(i) = true
      }
      entries.setPlain(at + 1, w)
      free(i) = false
      state(2 * w + 1) = tail + 1
      tail += 1
    }

    /** At the stale pop of `src`: install a helper's result into its slot
      * (`score` and `nodes`) when it is the one the loop would compute now.
      */
    def install(src: Int): Boolean = {
      val seq = state(2 * src + 1) - 1
      if (seq < 0) return false
      state(2 * src + 1) = 0L
      val i = (seq & mask).toInt
      val at = i * stride
      if (entries.getAcquire(at) != seq) return false
      free(i) = true
      val stamped = entries.getPlain(at + 2)
      if ((state(2 * src) & Changes) > (stamped >>> 1)) return false
      val s = entries.getPlain(at + 3)
      score(src) = s
      if (s != CliqueSearch.NoClique) {
        var j = 0
        while (j < k) {
          val word = entries.getPlain(at + 4 + (j >>> 1))
          nodes(src * k + j) = (if ((j & 1) == 0) word else word >>> 32).toInt
          j += 1
        }
      }
      if ((stamped & 1L) != 0) installedSearches += 1
      true
    }

    /** A helper: serve the published entries in order until `stop`. */
    def help(): Unit = {
      val search = new CliqueSearch(dag, k)
      search.rowCache = rows
      val clique = new Array[Int](k)
      var idle = 0
      while (!stopped) {
        val t = counters.get(Taken)
        if (t < counters.getAcquire(Published)) {
          if (counters.compareAndSet(Taken, t, t + 1)) { serve(search, clique, t); idle = 0 }
        } else if (idle < 256) { idle += 1; Thread.onSpinWait() }
        else LockSupport.parkNanos(50000L)
      }
    }

    private def serve(search: CliqueSearch, clique: Array[Int], t: Long): Unit = {
      val at = (t & mask).toInt * stride
      val stamp = counters.getAcquire(Stamp)
      val before = search.searches
      val s = search.findMin(entries.getPlain(at + 1).toInt, valid, sn, prune, clique, 0)
      entries.setPlain(at + 2, stamp << 1 | (if (search.searches != before) 1L else 0L))
      entries.setPlain(at + 3, s)
      var j = 0
      while (j < k) {
        entries.setPlain(at + 4 + (j >>> 1), (clique(j) & 0xffffffffL) | (if (j + 1 < k) clique(j + 1).toLong << 32 else 0L))
        j += 2
      }
      entries.setRelease(at, t)
    }

    def stop(): Unit = stopped = true
  }
}
