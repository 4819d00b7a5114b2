package repro.core

import java.util.Arrays

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
  * is an int heap of sources. Keys are unique (a clique has one source),
  * so the pop sequence does not depend on the heap layout.
  *
  * O(n+m) space: 8n + 4kn + 4n bytes for scores, slots and heap.
  */
object Lightweight {

  /** Counters exposed for the benches (pruning effectiveness). */
  final case class Stats(findMinCalls: Long, heapPushes: Long, stalePops: Long)

  /** Fails when n slots of k ids would not fit one `Int`-indexed array. */
  def checkSize(n: Int, k: Int): Unit =
    if (n.toLong * k > Int.MaxValue)
      throw new IllegalStateException(
        s"$n sources of k=$k need ${n.toLong * k} slot ids, over Int.MaxValue for the slot array")

  /** L or LP on node scores `sn` from the caller (line 2, Definition 5). */
  def run(g: CsrGraph, k: Int, sn: Array[Long], prune: PruneMode): (DisjointResult, Stats) = {
    require(sn.length == g.n, s"node scores cover ${sn.length} nodes, the graph has ${g.n}")
    checkSize(g.n, k)
    // Lines 3-4: score ordering, DAG orientation.
    val rank = Orderings.byScore(sn)
    val dag = CsrGraph.orient(g, rank)

    // HeapInit, then one O(n) heapify over the sources that root a clique.
    val (score, nodes) = heapInit(dag, k, sn, prune, Runtime.getRuntime.availableProcessors)
    var findMinCalls = 0L // HeapInit's; the loop's are `search.searches`
    val heap = new SlotHeap(score, nodes, k)
    var u = 0
    while (u < g.n) {
      if (dag.degree(u) >= k - 1) findMinCalls += 1
      if (score(u) != CliqueSearch.NoClique) heap.add(u)
      u += 1
    }
    heap.heapify()
    var pushes = heap.size.toLong
    var stale = 0L

    // Lines 31-39: Calculation.
    val search = new CliqueSearch(dag, k)
    val valid = Array.fill(g.n)(true)
    val out = Vector.newBuilder[Array[Int]]
    while (heap.size > 0) {
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
      } else {
        stale += 1
        // src = highest-η node of the stale clique (FindMin roots every
        // clique at its source); recompute its local minimum on the
        // residual graph in place (a FindMin call when src is still free
        // with k − 1 valid out-neighbours, counted by `search.searches`).
        val s = search.findMin(src, valid, sn, prune, nodes, at)
        if (s == CliqueSearch.NoClique) heap.pop()
        else { score(src) = s; pushes += 1; heap.replaceTop() }
      }
    }
    (DisjointResult(k, out.result()), Stats(findMinCalls + search.searches, pushes, stale))
  }

  /** LP on node scores counted on the driver. perfbench's LP ≤ OPT ≤ k·LP
    * check calls this form; every other caller passes its own scores.
    */
  def run(g: CsrGraph, k: Int): (DisjointResult, Stats) =
    run(g, k, CliqueSearch.countPerNode(CsrGraph.orient(g, Orderings.byId(g.n)), k), PruneMode.Paper)

  /** Lines 6, 10-14: HeapInit — the local minimum of every source, in one
    * `SourcePass.onDriver` pass on `workers` driver threads. Returns the
    * slots: u's score, or `CliqueSearch.NoClique`, and u's clique at
    * `nodes[u·k, (u+1)·k)`.
    */
  private[core] def heapInit(dag: CsrGraph, k: Int, sn: Array[Long], prune: PruneMode,
                             workers: Int): (Array[Long], Array[Int]) = {
    val score = new Array[Long](dag.n)
    val nodes = new Array[Int](dag.n * k)
    SourcePass.onDriver(dag, k, workers) { (search, sources) =>
      sources.foreach(u => score(u) = search.findMin(u, null, sn, prune, nodes, u * k))
    }
    (score, nodes)
  }

  /** Binary min-heap of sources, keyed by their slots' (score, canon). */
  private final class SlotHeap(score: Array[Long], nodes: Array[Int], k: Int) {
    private val heap = new Array[Int](score.length)
    var size = 0

    private def less(a: Int, b: Int): Boolean =
      if (score(a) != score(b)) score(a) < score(b)
      else Arrays.compare(nodes, a * k, a * k + k, nodes, b * k, b * k + k) < 0

    def add(u: Int): Unit = { heap(size) = u; size += 1 }
    def top: Int = heap(0)
    def heapify(): Unit = { var i = size / 2 - 1; while (i >= 0) { siftDown(i); i -= 1 } }
    /** Restore order after the top's slot changed. */
    def replaceTop(): Unit = siftDown(0)
    def pop(): Unit = { size -= 1; heap(0) = heap(size); siftDown(0) }

    private def siftDown(i0: Int): Unit = {
      val u = heap(i0)
      var i = i0
      var c = 2 * i + 1
      while (c < size) {
        if (c + 1 < size && less(heap(c + 1), heap(c))) c += 1
        if (less(heap(c), u)) { heap(i) = heap(c); i = c; c = 2 * i + 1 }
        else c = size
      }
      heap(i) = u
    }
  }
}
