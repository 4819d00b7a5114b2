package repro.bench

import repro.SparkSpec
import repro.graphdata.Datasets

/** Tables VII and VIII on FTB and HST, pinned: the index size after the
  * build, |S| minus scratch LP after the deletion, insertion and mixed
  * streams, and the swaps TrySwap made over them (`Tables.dynamicEval`).
  */
class DynamicTablesSpec extends SparkSpec {

  /** (dataset, k) → index size, del Δ, ins Δ, mix Δ, swaps. */
  private val expected: Seq[((String, Int), (Long, Int, Int, Int, Long))] = Seq(
    ("FTB", 3) -> (155L, -1, 2, 2, 34L),
    ("FTB", 4) -> (21L, 0, 0, 0, 24L),
    ("FTB", 5) -> (155L, 0, 0, 0, 0L),
    ("FTB", 6) -> (28L, 0, 0, 0, 0L),
    ("HST", 3) -> (1510L, -2, 4, -6, 290L),
    ("HST", 4) -> (2809L, 0, 0, 0, 270L),
    ("HST", 5) -> (1966L, 0, 0, 0, 86L),
    ("HST", 6) -> (1427L, 0, 0, 0, 0L),
  )

  for (((name, k), (indexSize, del, ins, mix, swaps)) <- expected)
    test(s"Tables VII and VIII $name k=$k: index $indexSize, Δ del $del ins $ins mix $mix, $swaps swaps") {
      val row = Tables.dynamicEval(spark, Datasets.byName(name), k)
      assert(row.indexSize == indexSize)
      assert((row.afterDelDelta, row.afterInsDelta, row.afterMixDelta) == ((del, ins, mix)))
      assert(row.swapCount == swaps)
    }
}
