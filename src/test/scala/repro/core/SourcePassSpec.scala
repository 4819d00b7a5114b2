package repro.core

import repro.SparkSpec
import repro.graphdata.GraphGen

/** The source pass's dealing rule and its Spark back end's part count and
  * boundary; the driver back end is exercised through HeapInit in
  * LightweightSpec.
  */
class SourcePassSpec extends SparkSpec {

  test("dealt puts every source in exactly one part, in whole interleaved blocks") {
    for (n <- Seq(0, 1, 63, 64, 50 * SourcePass.Block + 17); parts <- Seq(1, 7, 8, 64)) {
      val byPart = (0 until parts).map { p =>
        val sources = Vector.newBuilder[Int]
        SourcePass.dealt(n, parts, p).foreach(sources += _)
        sources.result()
      }
      assert(byPart.flatten.sorted == (0 until n), s"n=$n parts=$parts")
      for (p <- 0 until parts)
        assert(byPart(p).forall(u => (u / SourcePass.Block) % parts == p), s"n=$n parts=$parts p=$p")
    }
  }

  test("onSpark runs one partition per Spark core") {
    val dag = CsrGraph.orient(TestGraphs.fig2, Orderings.byId(9))
    val partitions = SourcePass.onSpark(spark, dag, 3)((_, _) => 0)(_.getNumPartitions)
    assert(partitions == spark.sparkContext.defaultParallelism)
  }

  test("Spark node scores equal CliqueSearch.countPerNode(dag, k) when parts hold no source") {
    // fig2's 9 nodes fill part 0's first block alone, so every other part
    // is empty; the community graph ends in a partial block
    val n = 50 * SourcePass.Block + 17
    val community = GraphGen.community(n, 6 * n, 8, 0.8, seed = 79L).toCsr
    for (g <- Seq(TestGraphs.fig2, community); k <- 3 to 5) {
      val dag = CsrGraph.orient(g, Orderings.byId(g.n))
      assert(NodeScores.compute(spark, dag, k).toSeq == CliqueSearch.countPerNode(dag, k).toSeq, s"n=${g.n} k=$k")
    }
  }

  test("onSpark rejects k < 3 with IllegalArgumentException on the driver") {
    val dag = CsrGraph.orient(TestGraphs.fig2, Orderings.byId(9))
    for (k <- Seq(2, 1, 0, -3)) {
      val scores = intercept[IllegalArgumentException](NodeScores.compute(spark, dag, k))
      assert(scores.getMessage.contains(s"got $k"))
      intercept[IllegalArgumentException](SparkCliqueLister.listAll(spark, dag, k))
    }
  }
}
