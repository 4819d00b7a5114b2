package repro.bench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** Schema of the committed benchmark trajectory: one `BENCH_<workload>.json`
  * per workload of `BENCHMARK.json`, each entry written by
  * `tools/bench_entry.py` from a set of perfbench records.
  */
class BenchTrajectorySpec extends AnyFunSuite {

  private val mapper = new ObjectMapper()
  private val spec = mapper.readTree(new File("BENCHMARK.json"))
  private def items(n: JsonNode): Seq[JsonNode] = n.elements().asScala.toSeq

  for (workload <- items(spec.get("workloads")).map(_.get("name").asText()))
    test(s"BENCH_$workload.json: every entry has its run set, environment and end-to-end metrics") {
      val doc = mapper.readTree(new File(s"BENCH_$workload.json"))
      assert(doc.get("workload").asText() == workload)
      val entries = items(doc.get("entries"))
      assert(entries.nonEmpty)
      for ((e, i) <- entries.zipWithIndex) {
        val ctx = s"$workload entry $i"
        for (f <- Seq("label", "commit", "source_stamp", "env", "seconds", "seeds", "runs",
                      "attempted", "failed", "all_correct", "metrics"))
          assert(e.has(f), s"$ctx: no $f")
        for (f <- Seq("nproc", "spark_master", "spark_default_parallelism", "max_heap_mb", "java_version"))
          assert(e.get("env").has(f), s"$ctx: no env.$f")
        assert(e.get("runs").asInt() == e.get("seeds").size() && e.get("runs").asInt() > 0, ctx)
        assert(e.get("failed").asLong() >= 0 && e.get("failed").asLong() <= e.get("attempted").asLong(), ctx)
        for (m <- items(spec.get("end_to_end"))) {
          val name = m.get("name").asText()
          val v = e.get("metrics").get(name)
          assert(v != null, s"$ctx: no metric $name")
          assert(v.get("unit").asText() == m.get("unit").asText(), s"$ctx: $name unit")
          val (q1, med, q3) = (v.get("q1").asDouble(), v.get("median").asDouble(), v.get("q3").asDouble())
          assert(q1 <= med && med <= q3, s"$ctx: $name quartiles $q1 $med $q3")
        }
        // The machine's state, recorded by `bench_entry.py pairs`: median
        // load average before and after a run, median steal %, and, in
        // entries since it was recorded, the median time of a fixed loop.
        if (e.has("machine")) {
          val m = e.get("machine")
          for (f <- Seq("runs", "load_before", "load_after", "steal_pct")) assert(m.has(f), s"$ctx: no machine.$f")
          assert(m.get("runs").asInt() > 0 && m.get("runs").asInt() <= e.get("runs").asInt(), ctx)
          assert(m.get("load_before").asDouble() >= 0 && m.get("load_after").asDouble() >= 0, ctx)
          val steal = m.get("steal_pct").asDouble()
          assert(steal >= 0 && steal <= 100, s"$ctx: steal $steal%")
          if (m.has("calib_ms")) assert(m.get("calib_ms").asDouble() > 0, s"$ctx: calib_ms")
        }
      }
    }
}
