package perfbench

import repro.core._
import repro.dynamic.{DynamicGraph, DynamicPacking}
import repro.graphdata.GraphGen
import scala.collection.mutable
import scala.util.Random

/** What one measured pass produced: workload-level numbers by name, and
  * latency samples (µs) by operation name.
  */
final case class Pass(values: mutable.LinkedHashMap[String, Double],
                      latencies: Map[String, Array[Double]] = Map.empty)

/** A seeded workload, run as: `warmup` on scaled-down inputs, to fill the
  * JIT and Spark's lazy state; `setup` three times, whose median is the
  * set-up time and which returns the numbers it measured by name;
  * `prepare` once; `pass` repeatedly, doing the same work each time; and
  * `finish`.
  */
trait Workload {
  def name: String
  /** Why the workload exists, and which layers it loads or bypasses. */
  def why: String
  def warmup(r: Run): Unit
  def setup(r: Run): mutable.LinkedHashMap[String, Double]
  def prepare(r: Run): Unit = ()
  def pass(r: Run): Pass
  /** Untraced passes a run makes at least, whatever --seconds says. */
  val minPasses = 1
  /** Checks on the state the measured passes left. */
  def finish(r: Run): Unit = ()
}

object Workloads {
  val all: Seq[Workload] = Seq(StaticFl, DynamicSwap)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** A registry graph regenerated under the workload seed: seed 0 gives
    * the registry's own graph.
    */
  def graphSeed(registrySeed: Long, seed: Long): Long = registrySeed + 1000L * seed

  def community(r: Run, n: Int, m: Int, comm: Int, p: Double, seed: Long): CsrGraph = {
    val el = r.trace.span("GraphGen.community")(GraphGen.community(n, m, comm, p, seed))
    r.trace.span("CsrGraph.fromUndirectedEdges")(CsrGraph.fromUndirectedEdges(el.n, el.src, el.dst))
  }

  def erdosRenyi(r: Run, n: Int, m: Int, seed: Long): CsrGraph = {
    val el = r.trace.span("GraphGen.erdosRenyiExactM")(GraphGen.erdosRenyiExactM(n, m, seed))
    r.trace.span("CsrGraph.fromUndirectedEdges")(CsrGraph.fromUndirectedEdges(el.n, el.src, el.dst))
  }

  /** The FL stand-in's generator (communities of 24, p=0.85, seed 108) at
    * n=100K/scale, m=900K/scale. Measured runs use scale 2, so that a
    * static pass takes about 10 s and every run repeats its work; the
    * communities, and hence the clique structure per node, are unchanged.
    */
  def fl(r: Run, scale: Int): CsrGraph =
    community(r, 100000 / scale, 900000 / scale, 24, 0.85, graphSeed(108L, r.opts.seed))

  /** Scale of the FL graph in measured runs, and in warm-up. */
  val flScale = 2
  val flWarmupScale = 10

  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val v = body
    (v, (System.nanoTime() - t0) / 1e9)
  }
}

import Workloads._

/** One (graph, k) cell and the algorithms run on it. */
final case class Cell(ds: String, g: CsrGraph, k: Int, algs: Seq[String],
                      theorem4: Boolean = false)

/** The static workload: every algorithm cell from CSR to S, checked. */
object StaticFl extends Workload {
  val name = "static-fl"
  val why = "FL stand-in at half size (n=50K, m=450K), k=3 (HG, GC, LP) and k=6 (HG, LP), plus OPT on " +
    "16 small Table IV cells: clique enumeration, GC sort-and-select and LP FindMin dominate."

  override val minPasses = 2

  private var cells: Seq[Cell] = Nil
  /** LP on each OPT cell, for the LP ≤ OPT ≤ k·LP check. */
  private val lpForOpt = mutable.HashMap.empty[(String, Int), Int]

  private def flCells(g: CsrGraph, ds: String) = Seq(
    Cell(ds, g, 3, Seq("hg", "gc", "lp"), theorem4 = true),
    Cell(ds, g, 6, Seq("hg", "lp")))

  /** The Table IV cells OPT solves within its budget. Football k<=5 and
    * Hamsterster only measure the 10 s budget. So does Lizard k=3, which
    * ran past it on 4 of 8 seeds tried and otherwise took 0.4 to 4.7 s.
    */
  private def optCells(r: Run): Seq[Cell] = {
    val s = r.opts.seed
    val animals = Seq(("Swallow", 17, 53, 201L), ("Tortoise", 35, 104, 202L),
                      ("Lizard", 60, 318, 203L), ("Voles", 181, 515, 204L))
    val opt = for {
      (ds, n, m, rs) <- animals
      g = erdosRenyi(r, n, m, graphSeed(rs, s))
      k <- if (ds == "Lizard") 4 to 6 else 3 to 6
    } yield Cell(ds, g, k, Seq("opt"))
    opt :+ Cell("Football", community(r, 115, 613, 8, 0.85, graphSeed(101L, s)), 6, Seq("opt"))
  }

  def warmup(r: Run): Unit = { runCells(r, flCells(fl(r, flWarmupScale), "FL-warmup") ++ optCells(r)); () }

  def setup(r: Run) = {
    cells = flCells(fl(r, flScale), "FL") ++ optCells(r)
    mutable.LinkedHashMap.empty
  }

  def pass(r: Run): Pass = runCells(r, cells)

  /** Theorem 4: LP(Strict), on the same node scores, selects exactly the
    * cliques GC selected in the passes.
    */
  override def finish(r: Run): Unit =
    for (c <- cells if c.theorem4) {
      val key = s"$name/gc/${c.ds}/k=${c.k}"
      r.op(s"$key/theorem-4") {
        val sn = NodeScores.compute(r.spark, CsrGraph.orient(c.g, Orderings.byId(c.g.n)), c.k)
        val strict = Lightweight.run(c.g, c.k, sn, PruneMode.Strict)._1
        r.check(r.digests.get(key).contains(Run.digest(strict)), s"$key: LP(Strict) selects other cliques than GC")
      }
    }

  private def runCells(r: Run, cs: Seq[Cell]): Pass = {
    val out = mutable.LinkedHashMap[String, Double](
      "hg_s" -> 0, "gc_s" -> 0, "lp_s" -> 0, "opt_s" -> 0,
      "hg_size" -> 0, "gc_size" -> 0, "lp_size" -> 0, "opt_size" -> 0)
    def record(alg: String, dt: Double, size: Int): Unit = {
      out(s"${alg}_s") += dt
      out(s"${alg}_size") += size
    }
    for (c <- cs; alg <- c.algs) {
      val key = s"$name/$alg/${c.ds}/k=${c.k}"
      r.op(key) {
        alg match {
          case "hg" | "gc" | "lp" =>
            val (s, dt) = timed(alg match {
              case "hg" => r.layers.hg(c.g, c.k)
              case "gc" => r.layers.gc(c.g, c.k)
              case _ => r.layers.lp(c.g, c.k)
            })
            r.checkResult(key, c.g, s)
            record(alg, dt, s.size)
          case "opt" =>
            val (res, dt) = timed(r.layers.opt(c.g, c.k))
            val o = res match {
              case Left(why) => throw new CheckFailed(s"$key: $why")
              case Right(o) if !o.optimal => throw new CheckFailed(s"$key: not optimal within the time budget")
              case Right(o) => o
            }
            r.checkResult(key, c.g, o.result)
            val lp = lpForOpt.getOrElseUpdate((c.ds, c.k), Lightweight.run(c.g, c.k)._1.size)
            r.check(lp <= o.result.size && o.result.size <= c.k * lp,
              s"$key: expected LP <= OPT <= k*LP, got LP=$lp OPT=${o.result.size}")
            record(alg, dt, o.result.size)
        }
      }
    }
    out("pass_s") = out("hg_s") + out("gc_s") + out("lp_s") + out("opt_s")
    out("final_size") = out("hg_size") + out("gc_size") + out("lp_size") + out("opt_size")
    Pass(out)
  }
}

/** The dynamic workload: a closed-loop, single-caller stream of U random edge
  * deletions followed by their re-insertions, which restores the graph.
  * A pass builds the candidate index over the initial LP packing and runs
  * the stream against it, so every pass does the same work and must end
  * in the same S.
  */
object DynamicSwap extends Workload {
  val name = "dynamic-swap"
  val why = "FL at k=4: a 10K-candidate index and a 2000-edge delete/re-insert stream with about 330 " +
    "swaps load TrySwap, recoverFree and bestDisjointSubset; index build is light."

  private val k = 4
  private val updates = 2000

  /** The graph, its initial packing and mutable copy, the stream, and the
    * packing the last pass left.
    */
  private final class State(val label: String, val g: CsrGraph, val initial: DisjointResult,
                            val dg: DynamicGraph, val stream: Array[(Int, Int)]) {
    var dp: DynamicPacking = _
  }
  private var state: State = _

  /** Graph, initial LP packing, mutable graph and stream; LP's time is `lp_s`. */
  private def build(r: Run, label: String, g: CsrGraph, u: Int) = {
    val (s, lpS) = timed(r.layers.lp(g, k))
    r.op(s"$label/initial-lp")(r.checkResult(s"$label/initial-lp", g, s))
    val st = new State(label, g, s, r.layers.dynamicGraph(g),
      sampleEdges(g, u, new Random((r.opts.seed * 31 + k) * 1000003L)))
    (st, mutable.LinkedHashMap("lp_s" -> lpS, "lp_size" -> s.size.toDouble))
  }

  def setup(r: Run) = {
    val (st, values) = build(r, name, fl(r, flScale), updates)
    state = st
    values
  }

  def warmup(r: Run): Unit = {
    val st = build(r, s"$name/warmup", fl(r, flWarmupScale), updates / 4)._1
    run(r, st)
    run(r, st)
    checkIndex(r, st)
  }

  /** One unmeasured pass brings the JIT to the full-size graph. */
  override def prepare(r: Run): Unit = { run(r, state); () }

  def pass(r: Run): Pass = run(r, state)

  override def finish(r: Run): Unit = checkIndex(r, state)

  /** `u` distinct edges of `g`, uniformly at random. */
  private def sampleEdges(g: CsrGraph, u: Int, rnd: Random): Array[(Int, Int)] = {
    val picked = mutable.LinkedHashSet.empty[Long]
    while (picked.size < u) {
      val i = rnd.nextInt(g.adjSize)
      // the node owning adjacency slot i (offsets repeat for isolated nodes)
      val a = java.util.Arrays.binarySearch(g.offsets, i)
      var src = if (a >= 0) a else -a - 2
      while (g.offsets(src + 1) <= i) src += 1
      val dst = g.adj(i)
      picked += (math.min(src, dst).toLong << 32) | math.max(src, dst)
    }
    picked.iterator.map(e => ((e >>> 32).toInt, e.toInt)).toArray
  }

  private def run(r: Run, st: State): Pass = {
    import st.{dg, g, label, stream}
    st.dp = null
    val (dp, buildS) = timed(r.layers.packing(dg, k, st.initial))
    st.dp = dp
    val indexBefore = dp.indexSize
    val u = stream.length
    val del = new Array[Double](u)
    val ins = new Array[Double](u)
    val t0 = System.nanoTime()
    var i = 0
    while (i < u) {
      val (a, b) = stream(i)
      val s = System.nanoTime()
      r.op(s"$label/delete")(dp.deleteEdge(a, b))
      del(i) = (System.nanoTime() - s) / 1e3
      i += 1
    }
    i = 0
    while (i < u) {
      val (a, b) = stream(i)
      val s = System.nanoTime()
      r.op(s"$label/insert")(dp.insertEdge(a, b))
      ins(i) = (System.nanoTime() - s) / 1e3
      i += 1
    }
    val streamS = (System.nanoTime() - t0) / 1e9

    r.op(s"$label/after-stream") {
      r.check(dg.edgeCount == g.undirectedEdgeCount && stream.forall { case (a, b) => dg.hasEdge(a, b) },
        s"$label: the stream did not restore the graph")
      r.checkResult(s"$label/after-stream", g, dp.result)
    }
    val out = mutable.LinkedHashMap[String, Double](
      "pass_s" -> (buildS + streamS),
      "index_build_s" -> buildS,
      "stream_s" -> streamS,
      "updates_per_s" -> 2 * u / streamS,
      "dyn_size" -> dp.size.toDouble,
      "final_size" -> dp.size.toDouble,
      "DynamicPacking.index_size_before" -> indexBefore.toDouble,
      "DynamicPacking.index_size_after" -> dp.indexSize.toDouble,
      "DynamicPacking.swaps" -> dp.swapCount.toDouble,
      "DynamicPacking.hosts_at_cap" ->
        dp.candidates.valuesIterator.count(_.size >= dp.maxCandidatesPerHost).toDouble,
      "DynamicPacking.largest_host" ->
        dp.candidates.valuesIterator.map(_.size).maxOption.getOrElse(0).toDouble)
    Pass(out, Map("DynamicPacking.deleteEdge" -> del, "DynamicPacking.insertEdge" -> ins))
  }

  /** The maintained index must equal a fresh Algorithm 5 build on the
    * current graph and S.
    */
  private def checkIndex(r: Run, st: State): Unit =
    r.op(s"${st.label}/index-parity") {
      val fresh = new DynamicPacking(st.dg, k)
      fresh.initialize(st.dp.result)
      r.check(sameIndex(st.dp, fresh),
        s"${st.label}: index differs from a fresh build (${st.dp.indexSize} vs ${fresh.indexSize} candidates)")
    }

  /** Same hosts (by their nodes) with the same candidate sets. */
  private def sameIndex(a: DynamicPacking, b: DynamicPacking): Boolean =
    a.candidates.size == b.candidates.size && a.candidates.forall { case (id, cands) =>
      b.candidates.get(b.cliqueOf(a.cliques(id)(0))).contains(cands)
    }
}
