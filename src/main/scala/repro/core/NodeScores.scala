package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

import scala.reflect.ClassTag

/** Distributed node scores (Definition 5): s_n(u) = number of k-cliques
  * containing u — the dominant cost of GC/L/LP and the paper's natural
  * parallel phase ("for each node u in parallel").
  *
  * The CSR DAG is broadcast; blocks of source nodes are dealt out to RDD
  * slices; each task enumerates the cliques rooted at its sources and
  * accumulates a partial per-node count array; partials merge by reduce.
  */
object NodeScores {

  /** Number of partitions of a source pass. */
  private[core] def slices(spark: SparkSession): Int =
    math.max(spark.sparkContext.defaultParallelism * 4, 8)

  /** Partition p's sources out of n: blocks p, p + slices, p + 2·slices, …
    * of `DriverParallel.Block` sources each. A source roots only cliques of
    * nodes ranked below it, so the work per source can grow steeply along
    * the ids; interleaved blocks spread it over the partitions, where
    * contiguous ranges leave it all to the last ones.
    */
  private def dealt(n: Int, slices: Int, p: Int): Iterator[Int] = {
    val block = DriverParallel.Block
    val blocks = ((n.toLong + block - 1) / block).toInt
    Iterator.range(p, blocks, slices).flatMap { b =>
      val from = b * block
      Iterator.range(from, if (n - from > block) from + block else n)
    }
  }

  /** One Spark pass over the DAG's source nodes: each partition gets its
    * dealt blocks of sources and one `CliqueSearch`, and `perPartition`
    * turns them into that partition's output; `merge` runs the action on
    * the resulting RDD while the DAG is still broadcast.
    */
  private[core] def overSources[T: ClassTag, R](spark: SparkSession, dag: CsrGraph, k: Int)
      (perPartition: (CliqueSearch, Iterator[Int]) => Iterator[T])(merge: RDD[T] => R): R = {
    val sc = spark.sparkContext
    val bc = sc.broadcast(dag)
    val parts = slices(spark)
    try merge(sc.parallelize(0 until parts, parts).mapPartitions(_.flatMap { p =>
      perPartition(new CliqueSearch(bc.value, k), dealt(bc.value.n, parts, p))
    }))
    finally bc.destroy()
  }

  def compute(spark: SparkSession, dag: CsrGraph, k: Int): Array[Long] =
    overSources(spark, dag, k) { (search, sources) =>
      Iterator.single(CliqueSearch.countPerNode(search, sources))
    } {
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

  /** Distributed total count without the per-node breakdown. */
  def countTotal(spark: SparkSession, dag: CsrGraph, k: Int): Long =
    overSources(spark, dag, k) { (search, sources) =>
      Iterator.single(CliqueSearch.countTotal(search, sources))
    }(_.reduce(_ + _))
}

/** Distributed full k-clique listing for GC: each partition lists the
  * cliques rooted at its sources into one flat canonical block, and the
  * driver concatenates the collected blocks once (this is exactly the
  * memory cost GC pays and Algorithm 3 avoids).
  */
object SparkCliqueLister {

  def listAll(spark: SparkSession, dag: CsrGraph, k: Int): Cliques =
    NodeScores.overSources(spark, dag, k) { (search, sources) =>
      Iterator.single(CliqueSearch.listAll(search, sources).nodes)
    }(blocks => Cliques.concat(k, blocks.collect()))
}
