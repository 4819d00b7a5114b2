package repro.bench

/** Budgets and scales for the evaluation harness.
  *
  * The paper's testbed (504 GB, 64 threads, 24 h limit) is modelled by
  * scaled budgets: a cell is OOM when an algorithm's *modelled* resident
  * structures exceed `memBudgetMB`, OOT when it exceeds `optTimeBudgetMs`.
  */
object BenchConfig {
  /** Modelled memory budget for clique-materialising algorithms (MB).
    * Paper: 504 GB physical; scaled to the container. */
  val memBudgetMB: Long = 512L

  /** Time budget per OPT cell (ms). Paper: 24 h. */
  val optTimeBudgetMs: Long = 10000L

  /** OPT also dies when its clique graph is too large to materialise. */
  val optMaxCliques: Long = 200000L
  val optMaxConflictEdges: Long = 20000000L

  /** k sweep of the evaluation section. */
  val ks: Seq[Int] = 3 to 6

  /** Update-workload sizes (paper: 10K del + 10K ins + 20K mixed; scaled
    * down so the full dynamic sweep stays in the session time budget). */
  val updatesPerWorkload: Int = 2000

  /** Watts–Strogatz sweep (paper: n=1M; scaled to n=50K). */
  val wsNodes: Int = 50000
  val wsDegrees: Seq[Int] = Seq(8, 16, 32, 64)
  val wsBeta: Double = 0.3
}
