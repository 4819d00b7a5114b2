package repro.core

import scala.collection.mutable

/** OPT — the exact baseline: materialise the clique graph (Definition 2)
  * and solve exact maximum independent set on it by branch-and-bound.
  *
  * Like the paper's OPT it is only feasible on small inputs; the harness
  * reports OOM when the clique graph exceeds a (scaled) memory budget and
  * OOT when the search exceeds a time budget — mirroring Tables II/IV.
  */
object ExactSolver {

  final case class OptResult(result: DisjointResult, optimal: Boolean,
                             cliqueCount: Long, conflictEdges: Long)

  /** Left("OOM: ...") when the clique graph is over budget; otherwise the
    * best packing found, with `optimal = false` meaning the time budget
    * expired first (reported as OOT by the benches).
    */
  def run(g: CsrGraph, k: Int,
          timeBudgetMs: Long = 60000L,
          maxCliques: Long = 2000000L,
          maxConflictEdges: Long = 50000000L): Either[String, OptResult] = {
    val dag = CsrGraph.orient(g, Orderings.byId(g.n))
    val tau = CliqueSearch.countTotal(dag, k)
    if (tau > maxCliques) return Left(s"OOM: $tau cliques exceed budget $maxCliques")
    val cliques = CliqueSearch.listAll(dag, k)
    val nc = cliques.length
    val nodes = cliques.nodes

    // Conflict adjacency: cliques sharing a node. Built via the inverted
    // node -> clique-ids index, deduplicated per clique.
    val byNode = Array.fill(g.n)(new mutable.ArrayBuffer[Int]())
    for (i <- 0 until nc; j <- 0 until k) byNode(nodes(i * k + j)) += i
    val conflictSets = Array.fill(nc)(new mutable.HashSet[Int]())
    var conflictEdges = 0L
    for (v <- 0 until g.n) {
      val ids = byNode(v)
      var i = 0
      while (i < ids.length) {
        var j = i + 1
        while (j < ids.length) {
          if (conflictSets(ids(i)).add(ids(j))) {
            conflictSets(ids(j)) += ids(i)
            conflictEdges += 1
            if (conflictEdges > maxConflictEdges)
              return Left(s"OOM: clique graph has > $maxConflictEdges edges")
          }
          j += 1
        }
        i += 1
      }
    }
    val conflicts: Array[Array[Int]] = conflictSets.map(_.toArray.sorted)

    // --- branch and bound MIS ---------------------------------------
    val alive = Array.fill(nc)(true)
    // per-G-node count of alive cliques containing it; #nodes with count>0
    // gives the ⌊free nodes / k⌋ upper bound on what remains packable.
    val nodeCnt = new Array[Int](g.n)
    for (v <- nodes) nodeCnt(v) += 1
    var aliveNodes = nodeCnt.count(_ > 0)
    val aliveDeg = conflicts.map(_.length)

    var best = -1
    var bestSet: List[Int] = Nil
    val chosen = new mutable.ArrayBuffer[Int]()
    val deadline = System.nanoTime() + timeBudgetMs * 1000000L
    var timedOut = false
    var ticks = 0

    def kill(i: Int, removedStack: mutable.ArrayBuffer[Int]): Unit = {
      alive(i) = false
      removedStack += i
      var o = i * k
      while (o < (i + 1) * k) { val v = nodes(o); nodeCnt(v) -= 1; if (nodeCnt(v) == 0) aliveNodes -= 1; o += 1 }
      for (j <- conflicts(i)) aliveDeg(j) -= 1
    }

    def revive(i: Int): Unit = {
      alive(i) = true
      var o = i * k
      while (o < (i + 1) * k) { val v = nodes(o); if (nodeCnt(v) == 0) aliveNodes += 1; nodeCnt(v) += 1; o += 1 }
      for (j <- conflicts(i)) aliveDeg(j) += 1
    }

    def recurse(): Unit = {
      if (timedOut) return
      ticks += 1
      if ((ticks & 0x3f) == 0 && System.nanoTime() > deadline) { timedOut = true; return }
      // bound: current + at most ⌊alive G-nodes / k⌋ further cliques
      if (chosen.size + aliveNodes / k <= best) return

      // Take every conflict-free clique greedily in one pass (always
      // safe), then pick the max-conflict-degree clique to branch on.
      val freeRemoved = new mutable.ArrayBuffer[Int]()
      var freeTaken = 0
      var progress = true
      while (progress) {
        progress = false
        var i = 0
        while (i < nc) {
          if (alive(i) && aliveDeg(i) == 0) {
            kill(i, freeRemoved)
            chosen += i
            freeTaken += 1
            progress = true
          }
          i += 1
        }
      }
      var branchI = -1
      var branchDeg = -1
      var i = 0
      while (i < nc) {
        if (alive(i) && aliveDeg(i) > branchDeg) { branchDeg = aliveDeg(i); branchI = i }
        i += 1
      }
      if (branchI < 0) { // nothing alive: leaf
        if (chosen.size > best) { best = chosen.size; bestSet = chosen.toList }
        var t = 0
        while (t < freeTaken) { chosen.remove(chosen.size - 1); t += 1 }
        freeRemoved.foreach(revive)
        return
      }
      // branch 1: include branchI (remove it and its alive conflicts)
      val removed1 = new mutable.ArrayBuffer[Int]()
      val conflictsToKill = conflicts(branchI).filter(alive)
      kill(branchI, removed1)
      conflictsToKill.foreach(j => if (alive(j)) kill(j, removed1))
      chosen += branchI
      recurse()
      chosen.remove(chosen.size - 1)
      removed1.reverseIterator.foreach(revive)
      if (!timedOut) {
        // branch 2: exclude branchI
        val removed2 = new mutable.ArrayBuffer[Int]()
        kill(branchI, removed2)
        recurse()
        removed2.reverseIterator.foreach(revive)
      }
      // undo the free-clique sweep of this frame
      var t = 0
      while (t < freeTaken) { chosen.remove(chosen.size - 1); t += 1 }
      freeRemoved.foreach(revive)
    }

    // seed best with the greedy min-conflict-degree MIS so pruning bites
    val seed = greedySeed(nc, conflicts)
    best = seed.size
    bestSet = seed
    recurse()
    val resultCliques = bestSet.sorted.map(cliques(_)).toVector
    Right(OptResult(DisjointResult(k, resultCliques), !timedOut, tau, conflictEdges))
  }

  /** Greedy MIS (ascending conflict degree) used as the initial bound. */
  private def greedySeed(nc: Int, conflicts: Array[Array[Int]]): List[Int] = {
    val order = (0 until nc).sortBy(i => (conflicts(i).length, i))
    val dead = new Array[Boolean](nc)
    val out = List.newBuilder[Int]
    for (i <- order) if (!dead(i)) {
      out += i
      dead(i) = true
      conflicts(i).foreach(dead(_) = true)
    }
    out.result()
  }
}
