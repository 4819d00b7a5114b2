package repro.core

import org.apache.spark.sql.SparkSession

/** Distributed node scores (Definition 5): s_n(u) = number of k-cliques
  * containing u — the dominant cost of GC/L/LP and the paper's natural
  * parallel phase ("for each node u in parallel").
  *
  * One `SourcePass.onSpark` job with one partition per Spark core: each
  * partition counts the cliques rooted at its dealt sources by pivoting
  * (`CliqueSearch.countPerNode`), without visiting them, into a partial
  * per-node count array, and the partials merge by reduce.
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

/** GC's listing, `CliqueSearch.listAll(dag, k)` on the driver, under the
  * name perfbench's GC layer times; `spark` is unused. Kept only because
  * perfbench calls it, until ROADMAP item 5 deletes it.
  */
object SparkCliqueLister {

  def listAll(spark: SparkSession, dag: CsrGraph, k: Int): Cliques = CliqueSearch.listAll(dag, k)
}
