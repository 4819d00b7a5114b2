package repro.core

import repro.SparkSpec

/** The source pass's dealing rule and its Spark back end's boundary; the
  * driver back end is exercised through HeapInit in LightweightSpec.
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

  test("onSpark rejects k < 3 with IllegalArgumentException on the driver") {
    val dag = CsrGraph.orient(TestGraphs.fig2, Orderings.byId(9))
    for (k <- Seq(2, 1, 0, -3)) {
      val scores = intercept[IllegalArgumentException](NodeScores.compute(spark, dag, k))
      assert(scores.getMessage.contains(s"got $k"))
      intercept[IllegalArgumentException](SparkCliqueLister.listAll(spark, dag, k))
    }
  }
}
