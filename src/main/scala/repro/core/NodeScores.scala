package repro.core

import org.apache.spark.sql.SparkSession

/** Distributed node scores (Definition 5): s_n(u) = number of k-cliques
  * containing u — the dominant cost of GC/L/LP and the paper's natural
  * parallel phase ("for each node u in parallel").
  *
  * One `SourcePass.onSpark` job: each partition counts the cliques rooted
  * at its dealt sources by pivoting (`CliqueSearch.countPerNode`), without
  * visiting them, into a partial per-node count array, and the partials
  * merge by reduce.
  */
object NodeScores {

  def compute(spark: SparkSession, dag: CsrGraph, k: Int): Array[Long] =
    SourcePass.onSpark(spark, dag, k)(CliqueSearch.countPerNode(_, _)) {
      _.reduce { (a, b) =>
        var i = 0
        while (i < a.length) { a(i) += b(i); i += 1 }
        a
      }
    }

  /** Total k-clique count from the score array: each clique contributes
    * k node-memberships.
    */
  def totalCliques(scores: Array[Long], k: Int): Long = scores.sum / k
}

/** Distributed full k-clique listing for GC, in canonical lex order (the
  * order of `CliqueSearch.listAll(dag, k)`): each partition lists the
  * cliques rooted at its dealt sources of `CsrGraph.upward(dag)` into one
  * flat block, and the driver deals the collected blocks back into source
  * order once (this is exactly the memory cost GC pays and Algorithm 3
  * avoids).
  */
object SparkCliqueLister {

  def listAll(spark: SparkSession, dag: CsrGraph, k: Int): Cliques = {
    val up = CsrGraph.upward(dag)
    SourcePass.onSpark(spark, up, k)(CliqueSearch.listAll(_, _).nodes)(
      parts => Cliques(k, SourcePass.undealt(up.n, k, parts.collect())))
  }
}
