package jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables
import repro.graphdata.Datasets

/** A spark-submit entrypoint, one per evaluation table, e.g.
  *
  *   spark-submit --class jobs.TableII repro.jar
  *
  * `main` starts the session, prints the paper-style table that `table`
  * computes with repro.bench.Tables, and stops the session.
  */
abstract class Job(name: String) {
  def table(spark: SparkSession): String

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    println(table(spark))
    spark.stop()
  }
}

object TableI extends Job("tableI") {
  def table(spark: SparkSession) = Tables.renderTableI(Tables.tableI(spark))
}

object TableII extends Job("tableII") {
  def table(spark: SparkSession) = {
    val rows = Tables.evalSweep(spark)
    s"${Tables.renderTableII(rows)}\n\nFig. 6 companion (runtimes):\n${Tables.renderRuntimes(rows)}"
  }
}

object TableIII extends Job("tableIII") {
  def table(spark: SparkSession) = Tables.renderTableIII(Tables.evalSweep(spark))
}

object TableIV extends Job("tableIV") {
  def table(spark: SparkSession) = Tables.renderTableIV(Tables.evalSweep(spark, Datasets.small))
}

object TableV extends Job("tableV") {
  def table(spark: SparkSession) = Tables.renderTableV(Tables.wsSweep(spark))
}

object TableVI extends Job("tableVI") {
  def table(spark: SparkSession) = Tables.renderTableVI(Tables.wsSweep(spark))
}

object TableVII extends Job("tableVII") {
  def table(spark: SparkSession) = Tables.renderTableVII(Tables.dynamicSweep(spark))
}

object TableVIII extends Job("tableVIII") {
  def table(spark: SparkSession) = {
    val rows = Tables.dynamicSweep(spark)
    s"${Tables.renderTableVIII(rows)}\n\nFig. 7 companion (update times):\n${Tables.renderUpdateTimes(rows)}"
  }
}
