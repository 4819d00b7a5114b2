package repro.core

import java.util.Arrays
import scala.collection.mutable

/** OPT — the exact baseline: a maximum set of disjoint k-cliques, which
  * is a maximum independent set of the clique graph (Definition 2).
  *
  * The clique graph itself is never stored. One node → cliques index (CSR
  * over the listing) counts its edges for the memory gate and splits it
  * into components (union-find over shared nodes). Each component is
  * searched exactly on its own, exact-cover style (Knuth, "Dancing
  * Links", 2000): take the node with the fewest live cliques and cover it
  * with each of them in turn, or leave it uncovered; cut a branch when
  * chosen + ⌊nodes still on a live clique / k⌋ cannot beat the best.
  *
  * Like the paper's OPT it is only feasible on small inputs; the harness
  * reports OOM when the clique graph exceeds a (scaled) memory budget and
  * OOT when the search exceeds a time budget — mirroring Tables II/IV.
  */
object ExactSolver {

  final case class OptResult(result: DisjointResult, optimal: Boolean,
                             cliqueCount: Long, conflictEdges: Long)

  /** Left("OOM: ...") when the clique graph is over budget: more than
    * `maxCliques` cliques (the listing stops at the source that passes
    * it) or more than `maxConflictEdges` sharing pairs. Otherwise the best
    * packing found, with `optimal = false` meaning the time budget expired
    * first (reported as OOT by the benches). After the deadline each
    * component still finishes its first descent, which only ever covers,
    * so an OOT packing is maximal.
    */
  def run(g: CsrGraph, k: Int,
          timeBudgetMs: Long = 60000L,
          maxCliques: Long = 2000000L,
          maxConflictEdges: Long = 50000000L): Either[String, OptResult] = {
    // Own listing, not `CliqueSearch.listAll`: in its lex order Football k=3 was OOT (about 17M search steps in
    // 10 s; 45,127 in this order), and its count-then-fill built each source's rows twice (14–55% slower).
    val lister = new CliqueSearch(CsrGraph.orient(g, Orderings.byId(g.n)), k)
    val listed = new mutable.ArrayBuilder.ofInt
    val add: Array[Int] => Boolean = { c => Cliques.checkSize(listed.length / k + 1L, k); listed.addAll(c, 0, k); false }
    val over = (0 until g.n).indexWhere { u => lister.forEachFrom(u, null)(add); listed.length / k > maxCliques }
    if (over >= 0) return Left(s"OOM: ${listed.length / k} cliques from sources 0..$over exceed budget $maxCliques")
    val nodes = listed.result()
    for (at <- 0 until nodes.length by k) Arrays.sort(nodes, at, at + k)
    val cliques = Cliques(k, nodes)
    val nc = cliques.length

    // Node v's cliques are through[start(v), start(v + 1)), ascending (visited in listing order).
    val index = CsrGraph.group(g.n)(f => for (o <- nodes.indices) f(nodes(o), o / k))
    val (start, through) = (index.offsets, index.adj)

    // One pass: count each sharing pair (i, j > i) once, by the last i
    // that stamped j, and join each clique to the first clique on each
    // of its nodes.
    val parent = Array.range(0, nc)
    def find(i: Int): Int = { var r = i; while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }; r }
    val stamp = Array.fill(nc)(-1)
    var conflictEdges = 0L
    var o = 0
    while (o < nodes.length) {
      val i = o / k
      val v = nodes(o)
      parent(find(i)) = find(through(start(v)))
      var t = start(v)
      while (t < start(v + 1)) {
        val j = through(t)
        if (j > i && stamp(j) != i) { stamp(j) = i; conflictEdges += 1 }
        t += 1
      }
      if (conflictEdges > maxConflictEdges) return Left(s"OOM: clique graph has > $maxConflictEdges edges")
      o += 1
    }
    // Each component's nodes, ascending; components ordered by their first node.
    val components = (0 until g.n).filter(v => start(v + 1) > start(v))
      .groupBy(v => find(through(start(v)))).values.map(_.toArray).toSeq.sortBy(_(0))

    // Search state: live cliques, live cliques per node, nodes on a live
    // clique (of the component searched), and one stack of killed cliques.
    val live = Array.fill(nc)(true)
    val liveCnt = Array.tabulate(g.n)(v => start(v + 1) - start(v))
    var coverable = 0
    val (killed, chosen) = (new Array[Int](nc), new Array[Int](g.n / k + 1))
    var (top, depth, best, bestSet) = (0, 0, -1, Array.empty[Int])
    val deadline = System.nanoTime() + timeBudgetMs * 1000000L
    var timedOut = false
    var ticks = 0

    def kill(c: Int): Unit = if (live(c)) {
      live(c) = false; killed(top) = c; top += 1
      for (o <- c * k until (c + 1) * k) { val v = nodes(o); liveCnt(v) -= 1; if (liveCnt(v) == 0) coverable -= 1 }
    }
    def killThrough(v: Int): Unit = for (t <- start(v) until start(v + 1)) kill(through(t))
    def undo(mark: Int): Unit = while (top > mark) {
      top -= 1; val c = killed(top); live(c) = true
      for (o <- c * k until (c + 1) * k) { val v = nodes(o); if (liveCnt(v) == 0) coverable += 1; liveCnt(v) += 1 }
    }
    def stopped = timedOut && best >= 0

    def search(comp: Array[Int]): Unit = {
      ticks += 1
      if ((ticks & 0x3f) == 0 && System.nanoTime() > deadline) timedOut = true
      if (stopped || depth + coverable / k <= best) return
      var v = -1
      for (u <- comp) if (liveCnt(u) > 0 && (v < 0 || liveCnt(u) < liveCnt(v))) v = u
      if (v < 0) { best = depth; bestSet = Arrays.copyOf(chosen, depth); return }
      val mark = top
      for (t <- start(v) until start(v + 1)) {
        val c = through(t)
        if (live(c) && !stopped) { // cover v with c
          for (o <- c * k until (c + 1) * k) killThrough(nodes(o))
          chosen(depth) = c
          depth += 1
          search(comp)
          depth -= 1
          undo(mark)
        }
      }
      if (!stopped) { killThrough(v); search(comp); undo(mark) } // leave v uncovered
    }

    val picked = Array.newBuilder[Int]
    for (comp <- components) {
      best = -1
      coverable = comp.length
      search(comp)
      picked ++= bestSet
    }
    val resultCliques = picked.result().sorted.map(cliques(_)).toVector
    Right(OptResult(DisjointResult(k, resultCliques), !timedOut, nc, conflictEdges))
  }
}
