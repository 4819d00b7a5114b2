package repro.core

import repro.SparkSpec
import repro.graphdata.GraphGen

/** Distributed node-score computation vs the driver-side reference. */
class NodeScoresSpec extends SparkSpec {

  for (k <- 3 to 6) {
    test(s"Spark node scores == driver-side counts on fig2-like graphs, k=$k") {
      val g = TestGraphs.randomGraph(40, 0.3, 1234L + k)
      val dag = CsrGraph.orient(g, Orderings.byId(g.n))
      val driver = CliqueSearch.countPerNode(dag, k)
      val dist = NodeScores.compute(spark, dag, k)
      assert(dist.toSeq == driver.toSeq)
      assert(NodeScores.totalCliques(dist, k) == TestGraphs.bruteCliques(g, k).size)
    }
  }

  test("Spark node scores on fig2 reproduce Example 3") {
    val dag = CsrGraph.orient(TestGraphs.fig2, Orderings.byId(9))
    val sn = NodeScores.compute(spark, dag, 3)
    assert(sn(4) == 3 && sn(5) == 3 && sn(7) == 3)
    assert(NodeScores.totalCliques(sn, 3) == 7)
  }

  for (k <- 3 to 5) {
    test(s"distributed node scores and listing == driver on a community graph, k=$k") {
      // the second graph gives every partition several dealt-out blocks
      val big = 3 * SourcePass.parts(spark.sparkContext.defaultParallelism) * SourcePass.Block
      for ((n, m, seed) <- Seq((500, 3000, 77L), (big, 6 * big, 78L))) {
        val g = GraphGen.community(n, m, 8, 0.8, seed = seed).toCsr
        for (dag <- Seq(CsrGraph.orient(g, Orderings.byDegree(g)), CsrGraph.orient(g, Orderings.byId(n)))) {
          val driver = CliqueSearch.countPerNode(dag, k)
          assert(NodeScores.compute(spark, dag, k).toSeq == driver.toSeq, s"n=$n")
        }
        // perfbench's listing entry, on the orientations it is handed
        val sn = NodeScores.compute(spark, CsrGraph.orient(g, Orderings.byId(n)), k)
        for (rank <- Seq(Orderings.byDegree(g), Orderings.byScore(sn))) {
          val dag = CsrGraph.orient(g, rank)
          val listed = SparkCliqueLister.listAll(spark, dag, k)
          assert(listed.length.toLong == NodeScores.totalCliques(sn, k), s"n=$n")
          assert(listed.nodes.toSeq == CliqueSearch.listAll(dag, k).nodes.toSeq, s"n=$n")
        }
      }
    }
  }

  for (k <- 3 to 5) {
    test(s"SparkCliqueLister == driver listAll (sequence), k=$k") {
      val g = TestGraphs.randomGraph(35, 0.35, 555L + k)
      val dag = CsrGraph.orient(g, Orderings.byDegree(g))
      val listed = SparkCliqueLister.listAll(spark, dag, k)
      val dist = TestGraphs.grouped(listed).map(_.toSeq).toSeq
      val driver = TestGraphs.grouped(CliqueSearch.listAll(dag, k)).map(_.toSeq).toSeq
      assert(dist == driver)
      assert(TestGraphs.strictlyLex(listed), "not strictly lex-increasing")
      assert(listed.length.toLong == TestGraphs.tau(dag, k))
      assert(listed.length == TestGraphs.bruteCliques(g, k).size)
      assert(dist.forall(c => c.zip(c.tail).forall { case (a, b) => a < b }), "non-canonical clique")
    }
  }

  test("GC on Spark node scores equals driver GC") {
    val g = TestGraphs.randomGraph(35, 0.4, 999)
    val k = 3
    val sn = NodeScores.compute(spark, CsrGraph.orient(g, Orderings.byId(g.n)), k)
    val (viaSpark, _) = TestGraphs.gc(g, k, sn)
    val (viaDriver, _) = TestGraphs.gc(g, k, TestGraphs.nodeScores(g, k))
    assert(viaSpark.cliques.map(_.toSet) == viaDriver.cliques.map(_.toSet))
    assert(viaSpark.cliques.map(_.toSeq) == viaDriver.cliques.map(_.toSeq), "selection order")
  }
}
