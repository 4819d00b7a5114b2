package repro.bench

import repro.SparkSpec

/** Tables VII & VIII and the Fig. 7 update times (one shared dynamic
  * sweep: index build, then deletion / insertion / mixed workloads).
  */
class TableVIIBench extends SparkSpec {

  private lazy val rows = Tables.dynamicSweep(spark)

  test("Table VII: indexing time and index size") {
    BenchOut.save("tableVII", Tables.renderTableVII(rows))
    for (r <- rows) {
      assert(r.indexMs >= 0)
      assert(r.indexSize >= 0)
    }
    // the paper's key point: the index stays far smaller than the clique
    // count (strict candidate constraint) — every dense dataset's index
    // is tiny relative to n*k possibilities
    for (r <- rows) assert(r.indexSize < 20L * 1000 * 1000, s"${r.name} k=${r.k}")
  }

  test("Table VIII: quality of S after updates stays near scratch rebuild") {
    BenchOut.save("tableVIII", Tables.renderTableVIII(rows))
    for (r <- rows) {
      // |Δ| small relative to |S|: compare against the scratch size via a
      // generous relative band, as the paper's Table VIII shows small
      // deltas of both signs
      for ((d, tag) <- Seq((r.afterDelDelta, "del"), (r.afterInsDelta, "ins"),
                           (r.afterMixDelta, "mix"))) {
        assert(math.abs(d) <= math.max(20, BenchConfig.updatesPerWorkload / 5),
          s"${r.name} k=${r.k} $tag: Δ=$d too large")
      }
    }
  }

  test("Fig 7 companion: update times recorded") {
    BenchOut.save("fig7-update-times", Tables.renderUpdateTimes(rows))
    for (r <- rows) {
      for (t <- Seq(r.del, r.ins, r.mix)) assert(t.meanNs >= 0 && t.p50Ns >= 0 && t.p50Ns <= t.p99Ns)
    }
  }
}
