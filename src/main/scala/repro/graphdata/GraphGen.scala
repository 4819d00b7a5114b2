package repro.graphdata

import repro.core.CsrGraph

import scala.collection.mutable
import scala.util.Random

/** An undirected edge list prior to CSR conversion. */
final case class EdgeList(n: Int, src: Array[Int], dst: Array[Int]) {
  def m: Int = src.length
  def toCsr: CsrGraph = CsrGraph.fromUndirectedEdges(n, src, dst)
}

/** Seeded synthetic graph generators (dataset substitutes — see DESIGN.md
  * §3/§4: the KONECT/NetworkRepository graphs are not available offline).
  *
  * All generators are deterministic in their parameters + seed, so every
  * test and bench sees the identical graph.
  */
object GraphGen {

  /** Erdős–Rényi G(n, m): exactly `m` distinct edges, no self-loops. */
  def erdosRenyiExactM(n: Int, m: Int, seed: Long): EdgeList = {
    val maxM = n.toLong * (n - 1) / 2
    require(m <= maxM, s"m=$m exceeds max ${maxM} for n=$n")
    val rnd = new Random(seed)
    val seen = mutable.HashSet.empty[Long]
    val src = new mutable.ArrayBuffer[Int](m)
    val dst = new mutable.ArrayBuffer[Int](m)
    while (seen.size < m) {
      val a = rnd.nextInt(n)
      val b = rnd.nextInt(n)
      if (a != b) {
        val lo = math.min(a, b); val hi = math.max(a, b)
        val enc = (lo.toLong << 32) | hi
        if (seen.add(enc)) { src += lo; dst += hi }
      }
    }
    EdgeList(n, src.toArray, dst.toArray)
  }

  /** Watts–Strogatz small-world graph [43]: ring lattice of even degree
    * `deg`, each lattice edge rewired with probability `beta` to a random
    * non-duplicate target. Used for the Table V/VI synthetic sweep.
    */
  def wattsStrogatz(n: Int, deg: Int, beta: Double, seed: Long): EdgeList = {
    require(deg % 2 == 0 && deg < n, s"degree must be even and < n, got $deg")
    val rnd = new Random(seed)
    val adj = Array.fill(n)(mutable.HashSet.empty[Int])
    def connected(a: Int, b: Int) = adj(a).contains(b)
    def add(a: Int, b: Int): Unit = { adj(a) += b; adj(b) += a }
    def remove(a: Int, b: Int): Unit = { adj(a) -= b; adj(b) -= a }
    for (u <- 0 until n; j <- 1 to deg / 2) add(u, (u + j) % n)
    for (u <- 0 until n; j <- 1 to deg / 2) {
      val v = (u + j) % n
      if (rnd.nextDouble() < beta && connected(u, v)) {
        var w = rnd.nextInt(n)
        var tries = 0
        while ((w == u || connected(u, w)) && tries < 32) { w = rnd.nextInt(n); tries += 1 }
        if (w != u && !connected(u, w)) { remove(u, v); add(u, w) }
      }
    }
    val src = new mutable.ArrayBuffer[Int]()
    val dst = new mutable.ArrayBuffer[Int]()
    for (u <- 0 until n; v <- adj(u).toArray.sorted if u < v) { src += u; dst += v }
    EdgeList(n, src.toArray, dst.toArray)
  }

  /** Planted-community "social" graph: nodes are partitioned into
    * communities of size `commSize`; each intra-community pair appears
    * with probability `pIntra` (dense => many k-cliques, the defining
    * property of the paper's social datasets), and uniformly random
    * background edges are added until `targetM` is reached. A target
    * over n(n−1)/2 is rejected; one the background draws cannot reach
    * throws rather than return fewer edges.
    */
  def community(n: Int, targetM: Int, commSize: Int, pIntra: Double, seed: Long): EdgeList = {
    require(commSize >= 2 && commSize <= n, s"bad community size $commSize for n=$n")
    val maxM = n.toLong * (n - 1) / 2
    require(targetM <= maxM, s"targetM=$targetM exceeds max $maxM for n=$n")
    val rnd = new Random(seed)
    // random permutation so community membership is not id-contiguous
    val perm = rnd.shuffle((0 until n).toVector).toArray
    val seen = mutable.HashSet.empty[Long]
    val src = new mutable.ArrayBuffer[Int]()
    val dst = new mutable.ArrayBuffer[Int]()
    def add(a: Int, b: Int): Boolean = {
      if (a == b) return false
      val lo = math.min(a, b); val hi = math.max(a, b)
      val enc = (lo.toLong << 32) | hi
      if (seen.add(enc)) { src += lo; dst += hi; true } else false
    }
    var base = 0
    while (base < n && src.length < targetM) {
      val size = math.min(commSize, n - base)
      var i = 0
      while (i < size && src.length < targetM) {
        var j = i + 1
        while (j < size && src.length < targetM) {
          if (rnd.nextDouble() < pIntra) add(perm(base + i), perm(base + j))
          j += 1
        }
        i += 1
      }
      base += size
    }
    // background edges up to the target edge count
    var guard = 0L
    val maxGuard = targetM.toLong * 64 + 1024
    while (src.length < targetM && guard < maxGuard) {
      add(rnd.nextInt(n), rnd.nextInt(n))
      guard += 1
    }
    if (src.length < targetM)
      throw new IllegalStateException(s"${src.length} of targetM=$targetM edges after $guard background draws for n=$n")
    EdgeList(n, src.toArray, dst.toArray)
  }
}
