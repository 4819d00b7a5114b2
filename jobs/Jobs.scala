package jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables
import repro.graphdata.Datasets

/** spark-submit entrypoints, one per evaluation table, e.g.
  *
  *   spark-submit --class jobs.TableII repro.jar
  *
  * Each prints the paper-style table computed by repro.bench.Tables.
  */
object Jobs {
  def session(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

object TableI {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableI")
    println(Tables.renderTableI(Tables.tableI(spark)))
    spark.stop()
  }
}

object TableII {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableII")
    val rows = Tables.evalSweep(spark)
    println(Tables.renderTableII(rows))
    println()
    println("Fig. 6 companion (runtimes):")
    println(Tables.renderRuntimes(rows))
    spark.stop()
  }
}

object TableIII {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableIII")
    println(Tables.renderTableIII(Tables.evalSweep(spark)))
    spark.stop()
  }
}

object TableIV {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableIV")
    println(Tables.renderTableIV(Tables.tableIV(spark)))
    spark.stop()
  }
}

object TableV {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableV")
    println(Tables.renderTableV(Tables.wsSweep(spark)))
    spark.stop()
  }
}

object TableVI {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableVI")
    println(Tables.renderTableVI(Tables.wsSweep(spark)))
    spark.stop()
  }
}

object TableVII {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableVII")
    val rows = for (spec <- Datasets.standins; k <- repro.bench.BenchConfig.ks)
      yield Tables.dynamicEval(spark, spec, k)
    println(Tables.renderTableVII(rows))
    spark.stop()
  }
}

object TableVIII {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("tableVIII")
    val rows = for (spec <- Datasets.standins; k <- repro.bench.BenchConfig.ks)
      yield Tables.dynamicEval(spark, spec, k)
    println(Tables.renderTableVIII(rows))
    println()
    println("Fig. 7 companion (update times):")
    println(Tables.renderUpdateTimes(rows))
    spark.stop()
  }
}
