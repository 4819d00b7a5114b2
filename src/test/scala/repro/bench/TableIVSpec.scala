package repro.bench

import java.util.Arrays
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ExactSolver, Lightweight}
import repro.graphdata.Datasets

/** Table IV's cells that OPT solves, pinned: LP's size, and OPT's size,
  * clique count τ, clique-graph edges and packing, with the evaluation's
  * OPT budgets. Hamsterster k=3 is left out: it is OOT at the time budget,
  * so its packing depends on timing.
  */
class TableIVSpec extends AnyFunSuite {

  /** (dataset, k) → LP, OPT, τ, conflict edges, and `Arrays.hashCode` of
    * OPT's cliques flattened in result order.
    */
  private val expected: Seq[((String, Int), (Int, Int, Long, Long, Int))] = Seq(
    ("Swallow", 3) -> (5, 5, 39L, 322L, -1532829190),
    ("Swallow", 4) -> (2, 2, 7L, 12L, 116276621),
    ("Swallow", 5) -> (0, 0, 0L, 0L, 1),
    ("Swallow", 6) -> (0, 0, 0L, 0L, 1),
    ("Tortoise", 3) -> (8, 9, 36L, 155L, -1717126248),
    ("Tortoise", 4) -> (1, 1, 1L, 0L, 1365550),
    ("Tortoise", 5) -> (0, 0, 0L, 0L, 1),
    ("Tortoise", 6) -> (0, 0, 0L, 0L, 1),
    ("Lizard", 3) -> (17, 19, 207L, 3494L, -1962836978),
    ("Lizard", 4) -> (6, 6, 17L, 52L, 1592100637),
    ("Lizard", 5) -> (0, 0, 0L, 0L, 1),
    ("Lizard", 6) -> (0, 0, 0L, 0L, 1),
    ("Football", 3) -> (32, 38, 573L, 10366L, -2092354309),
    ("Football", 4) -> (26, 26, 395L, 6311L, -635774655),
    ("Football", 5) -> (13, 13, 168L, 1544L, 1637814002),
    ("Football", 6) -> (9, 9, 37L, 130L, -724447198),
    ("Voles", 3) -> (16, 16, 27L, 19L, -1082583089),
    ("Voles", 4) -> (0, 0, 0L, 0L, 1),
    ("Voles", 5) -> (0, 0, 0L, 0L, 1),
    ("Voles", 6) -> (0, 0, 0L, 0L, 1),
    ("Hamsterster", 4) -> (371, 371, 10268L, 336111L, -678222059),
    ("Hamsterster", 5) -> (246, 246, 5204L, 142635L, 1415607918),
    ("Hamsterster", 6) -> (135, 135, 1562L, 27174L, 1582778672),
  )

  for (((name, k), (lp, size, tau, conflictEdges, hash)) <- expected)
    test(s"Table IV $name k=$k: LP $lp, OPT $size (optimal), τ $tau, $conflictEdges conflict edges and the packing") {
      val g = Datasets.byName(name).csr
      assert(Lightweight.run(g, k)._1.size == lp)
      val Right(opt) = ExactSolver.run(g, k,
        timeBudgetMs = BenchConfig.optTimeBudgetMs,
        maxCliques = BenchConfig.optMaxCliques,
        maxConflictEdges = BenchConfig.optMaxConflictEdges)
      assert(opt.result.size == size && opt.optimal)
      assert(opt.cliqueCount == tau && opt.conflictEdges == conflictEdges)
      val cliques = opt.result.cliques
      assert(cliques.forall(c => c.zip(c.tail).forall { case (a, b) => a < b }), "a clique is not strictly ascending")
      assert(Arrays.hashCode(cliques.flatten.toArray) == hash)
    }
}
