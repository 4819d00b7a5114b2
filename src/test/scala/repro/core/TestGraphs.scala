package repro.core

import scala.util.Random

/** Shared fixtures: the paper's running examples and brute-force
  * reference implementations used to validate the optimised code.
  */
object TestGraphs {

  def fromEdges(n: Int, edges: Seq[(Int, Int)]): CsrGraph =
    CsrGraph.fromUndirectedEdges(n, edges.map(_._1).toArray, edges.map(_._2).toArray)

  /** Fig. 2 graph: 9 nodes (paper's v1..v9 → 0..8), 15 edges, exactly
    * seven 3-cliques C1..C7; maximum disjoint 3-clique set has size 3.
    */
  lazy val fig2: CsrGraph = fromEdges(9, Seq(
    (0, 2), (0, 5), (2, 5),        // C1 = (v1,v3,v6)
    (2, 4), (4, 5),                // C2 = (v3,v5,v6)
    (4, 7), (5, 7),                // C3 = (v5,v6,v8)
    (4, 6), (6, 7),                // C4 = (v5,v7,v8)
    (6, 8), (7, 8),                // C5 = (v7,v8,v9)
    (3, 6), (3, 8),                // C6 = (v4,v7,v9)
    (1, 3), (1, 8),                // C7 = (v2,v4,v9)
  ))

  /** The seven 3-cliques of fig2, in paper order (0-based node ids). */
  val fig2Cliques: Seq[Set[Int]] = Seq(
    Set(0, 2, 5), Set(2, 4, 5), Set(4, 5, 7), Set(4, 6, 7),
    Set(6, 7, 8), Set(3, 6, 8), Set(1, 3, 8),
  )

  /** Fig. 5 G1: 11 nodes (v1..v11 → 0..10). G2 = G1 + edge (v5,v7). */
  lazy val fig5G1Edges: Seq[(Int, Int)] = Seq(
    (0, 1), (0, 2), (1, 2),      // (v1,v2,v3)
    (2, 3), (2, 4), (3, 4),      // (v3,v4,v5)
    (4, 5), (5, 6),              // v5-v6, v6-v7
    (8, 9), (8, 10), (9, 10),    // (v9,v10,v11)
  )
  lazy val fig5G1: CsrGraph = fromEdges(11, fig5G1Edges)
  lazy val fig5G2: CsrGraph = fromEdges(11, fig5G1Edges :+ ((4, 6)))

  /** The cliques of a flat listing, one array each, in listing order. */
  def grouped(c: Cliques): Array[Array[Int]] = c.nodes.grouped(c.k).toArray

  /** Whether the cliques of a flat listing rise strictly in lex order. */
  def strictlyLex(c: Cliques): Boolean =
    (1 until c.length).forall(i => CliqueSearch.compareCanon(c(i - 1), c(i)) < 0)

  def complete(n: Int): CsrGraph =
    fromEdges(n, for (i <- 0 until n; j <- (i + 1) until n) yield (i, j))

  def path(n: Int): CsrGraph = fromEdges(n, (0 until n - 1).map(i => (i, i + 1)))

  def cycle(n: Int): CsrGraph =
    fromEdges(n, (0 until n).map(i => (i, (i + 1) % n)))

  def randomGraph(n: Int, p: Double, seed: Long): CsrGraph = {
    val rnd = new Random(seed)
    val edges = for {
      i <- 0 until n
      j <- (i + 1) until n
      if rnd.nextDouble() < p
    } yield (i, j)
    fromEdges(n, edges)
  }

  // ------------------------------------------------------------------
  // Brute-force references (exponential — test-scale graphs only)
  // ------------------------------------------------------------------

  /** All k-cliques by testing every ascending k-subset. A subset is
    * skipped as soon as one of its prefixes is not a clique, since no
    * superset of a non-clique is a clique.
    */
  def bruteCliques(g: CsrGraph, k: Int): Set[Set[Int]] = {
    def grow(chosen: List[Int], from: Int, left: Int): Iterator[List[Int]] =
      if (left == 0) Iterator.single(chosen)
      else (from until g.n).iterator
        .filter(v => chosen.forall(g.hasEdge(_, v)))
        .flatMap(v => grow(v :: chosen, v + 1, left - 1))
    grow(Nil, 0, k).map(_.toSet).toSet
  }

  /** Exact maximum disjoint k-clique set size by exhaustive search. */
  def bruteMaxDisjoint(g: CsrGraph, k: Int): Int = {
    val cliques = bruteCliques(g, k).toVector
    var best = 0
    def rec(idx: Int, used: Set[Int], size: Int): Unit = {
      if (size + (cliques.length - idx) <= best) return // safe bound
      if (size > best) best = size
      var i = idx
      while (i < cliques.length) {
        if (cliques(i).forall(v => !used.contains(v)))
          rec(i + 1, used ++ cliques(i), size + 1)
        i += 1
      }
    }
    rec(0, Set.empty, 0)
    best
  }

  /** Brute-force node scores (Definition 5). */
  def bruteNodeScores(g: CsrGraph, k: Int): Array[Long] = {
    val sn = new Array[Long](g.n)
    bruteCliques(g, k).foreach(_.foreach(sn(_) += 1))
    sn
  }

  /** Node scores (Definition 5), counted on the driver over the by-id DAG. */
  def nodeScores(g: CsrGraph, k: Int): Array[Long] =
    CliqueSearch.countPerNode(CsrGraph.orient(g, Orderings.byId(g.n)), k)

  /** Clique score s_c(C) = Σ_{u∈C} s_n(u) (Definition 6). */
  def cliqueScore(c: Iterable[Int], sn: Array[Long]): Long = c.iterator.map(sn(_)).sum

  /** GC's pipeline on the driver, as `Runner.evaluate` runs it: list the
    * cliques of the by-id DAG and select. Returns (S, number of stored
    * cliques).
    */
  def gc(g: CsrGraph, k: Int, sn: Array[Long]): (DisjointResult, Long) = {
    val cliques = CliqueSearch.listAll(CsrGraph.orient(g, Orderings.byId(g.n)), k)
    (CliqueScoreGreedy.select(g.n, k, cliques, sn), cliques.length.toLong)
  }

  /** τ of a DAG, the total of its per-node counts. */
  def tau(dag: CsrGraph, k: Int): Long = NodeScores.totalCliques(CliqueSearch.countPerNode(dag, k), k)
}
