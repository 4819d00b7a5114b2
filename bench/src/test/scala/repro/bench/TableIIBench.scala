package repro.bench

import repro.SparkSpec

/** Tables II & III and the Fig. 6 runtimes: one shared sweep.
  *
  * Paper shapes asserted:
  *  - every algorithm's S is a valid packing (checked in unit tests; here
  *    we assert the quality ordering): LP/GC ≥ HG on aggregate, LP ≈ GC;
  *  - GC goes OOM on the dense/large cells while HG/LP never do;
  *  - LP's modelled memory is a small multiple of HG's, GC's is not.
  */
class TableIIBench extends SparkSpec {

  private lazy val rows = Tables.evalSweep(spark)

  test("Table II: size of S per algorithm") {
    BenchOut.save("tableII", Tables.renderTableII(rows))

    // aggregate quality: LP finds at least as many cliques as HG overall
    val ok = rows.filter(r => r.lp.status == "ok" && r.hg.status == "ok")
    val lpTotal = ok.map(_.lp.size.toLong).sum
    val hgTotal = ok.map(_.hg.size.toLong).sum
    assert(lpTotal >= hgTotal, s"LP=$lpTotal < HG=$hgTotal in aggregate")

    // LP ≈ GC wherever GC completed (paper: "nearly the same")
    for (r <- rows if r.gc.status == "ok") {
      val tol = math.max(2, r.gc.size / 20)
      assert(math.abs(r.gc.size - r.lp.size) <= tol,
        s"${r.dataset} k=${r.k}: GC=${r.gc.size} LP=${r.lp.size}")
    }

    // wherever OPT is optimal, LP ≤ OPT ≤ k·LP (LP is a k-approximation)
    for (r <- rows if r.opt.status == "ok")
      assert(r.lp.size <= r.opt.size && r.opt.size <= r.k * r.lp.size,
        s"${r.dataset} k=${r.k}: LP=${r.lp.size} OPT=${r.opt.size}")

    // HG and LP never OOM (O(n+m) space) — GC must OOM somewhere on the
    // dense stand-ins, as in the paper
    assert(rows.forall(r => r.hg.status == "ok" && r.lp.status == "ok"))
    assert(rows.exists(r => r.gc.status == "OOM"), "expected GC OOM cells")
  }

  test("Table III: modelled space consumption") {
    BenchOut.save("tableIII", Tables.renderTableIII(rows))
    for (r <- rows) {
      // LP within a small constant of HG; GC >= LP wherever it ran
      assert(r.lp.modelMB <= r.hg.modelMB * 20 + 8.0,
        s"${r.dataset} k=${r.k}: LP=${r.lp.modelMB} HG=${r.hg.modelMB}")
      if (r.gc.status == "ok") assert(r.gc.modelMB >= r.lp.modelMB)
    }
  }

  test("Fig 6 companion: runtimes recorded; HG fastest overall") {
    BenchOut.save("fig6-runtimes", Tables.renderRuntimes(rows))
    val ok = rows.filter(r => r.gc.status == "ok")
    // aggregate: HG total runtime below LP total (paper: HG ~2x faster)
    val hgT = rows.map(_.hg.millis).sum
    val lpT = rows.map(_.lp.millis).sum
    assert(hgT <= lpT, s"HG=$hgT ms should not exceed LP=$lpT ms in aggregate")
    // and LP beats GC in aggregate where GC ran (paper: 1-2 orders)
    if (ok.nonEmpty) {
      val gcT = ok.map(_.gc.millis).sum
      val lpT2 = ok.map(_.lp.millis).sum
      assert(lpT2 <= gcT * 2, s"LP=$lpT2 ms vs GC=$gcT ms")
    }
  }
}
