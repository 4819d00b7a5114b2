package repro.core

import scala.collection.mutable

/** Algorithm 3 as first written: a `PriorityQueue` of (score, clique,
  * source) entries with one fresh clique array per push. A reference for
  * `Lightweight.run`, which must select the same cliques in the same
  * order with the same counters.
  */
object ReferenceLightweight {

  private final case class Entry(score: Long, nodes: Array[Int], source: Int)

  // PriorityQueue is a max-heap: invert so the min (score, canon) pops.
  private val entryOrdering: Ordering[Entry] = (a, b) =>
    if (a.score != b.score) -java.lang.Long.compare(a.score, b.score)
    else -CliqueSearch.compareCanon(a.nodes, b.nodes)

  def run(g: CsrGraph, k: Int, sn: Array[Long], prune: PruneMode): (DisjointResult, Lightweight.Stats) = {
    val dag = CsrGraph.orient(g, Orderings.byScore(sn))
    val search = new CliqueSearch(dag, k)
    val valid = Array.fill(g.n)(true)
    var findMinCalls, pushes, stale = 0L
    val heap = mutable.PriorityQueue.empty[Entry](entryOrdering)
    def push(u: Int, mask: Array[Boolean]): Unit = {
      findMinCalls += 1
      val nodes = new Array[Int](k)
      val score = search.findMin(u, mask, sn, prune, nodes, 0)
      if (score != CliqueSearch.NoClique) { heap.enqueue(Entry(score, nodes, u)); pushes += 1 }
    }
    for (u <- 0 until g.n if dag.degree(u) >= k - 1) push(u, null)
    val out = Vector.newBuilder[Array[Int]]
    while (heap.nonEmpty) {
      val e = heap.dequeue()
      if (e.nodes.forall(valid(_))) {
        out += e.nodes
        e.nodes.foreach(valid(_) = false)
      } else {
        stale += 1
        if (valid(e.source) && dag.neighborsOf(e.source).count(valid(_)) >= k - 1) push(e.source, valid)
      }
    }
    (DisjointResult(k, out.result()), Lightweight.Stats(findMinCalls, pushes, stale))
  }
}
