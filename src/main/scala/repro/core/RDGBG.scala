package repro.core

import scala.collection.mutable
import scala.util.Random

/** Result of the RD-GBG granulation stage.
  *
  * @param balls  generated granular balls (pure, non-overlapping), including
  *               the radius-0 orphan balls built at termination
  * @param noise  samples judged as class noise and removed from the dataset
  */
final case class RDGBGResult(balls: Vector[GranularBall], noise: Vector[Point]) {
  /** Total samples covered by balls (excludes removed noise). */
  def covered: Int = balls.map(_.size).sum
}

/** Restricted Diffusion-based Granular-Ball Generation (Algorithm 1).
  *
  * Iteratively: pick one random candidate center per class among the
  * undivided non-low-density samples (larger classes first), run
  * local-density center detection (Eq.2) — which doubles as class-noise
  * detection — then grow a pure ball around each eligible center over the
  * homogeneous samples closer than the nearest heterogeneous one (Eq.3),
  * restricted by the nearest previously generated ball (Eq.4–6) so balls
  * never overlap. Terminates when every undivided sample is low-density;
  * remaining samples become radius-0 orphan balls (completeness).
  */
object RDGBG {

  /** Run RD-GBG over `data` with density tolerance `rho` (paper default 5).
    * Ids must be unique, and every point must have the first point's
    * feature count.
    */
  def generate(data: Seq[Point], rho: Int = 5, seed: Long = 42): RDGBGResult = {
    require(rho >= 2, s"density tolerance must be >= 2, got $rho")
    val rng = new Random(seed)

    // The flat frame: input position i has features x(i*p until (i+1)*p),
    // label y(i) and id ids(i). Positions stand for U's iteration order.
    val pts = data.toArray
    val n = pts.length
    val p = if (n == 0) 0 else pts(0).dim
    val x = new Array[Double](n * p); val y = new Array[Int](n); val ids = new Array[Long](n)
    val seen = mutable.HashSet.empty[Long]
    for (i <- 0 until n) {
      val q = pts(i)
      require(seen.add(q.id), s"duplicate point id ${q.id}")
      require(q.dim == p, s"point id ${q.id} has ${q.dim} features, expected $p")
      System.arraycopy(q.features, 0, x, i * p, p); y(i) = q.label; ids(i) = q.id
    }

    // Undivided set U and low-density set L (L subset of U) as flags.
    val inU = Array.fill(n)(true)
    val inL = new Array[Boolean](n)
    def remove(i: Int): Unit = { inU(i) = false; inL(i) = false }
    // U \ {c} for the current candidate c: positions, distances to c, ids.
    val pos = new Array[Int](n); val dist = new Array[Double](n); val oid = new Array[Long](n)
    val balls = mutable.ArrayBuffer.empty[GranularBall]
    val noise = Vector.newBuilder[Point]

    // T = U - L, grouped by label: one array per class (ascending label),
    // in U's order, whose first tSize(k) entries are live. Samples only
    // ever leave T, so each pass compacts the arrays in place.
    val labels = y.distinct.sorted
    val tOf = labels.map(lab => y.indices.filter(y(_) == lab).toArray)
    val tSize = tOf.map(_.length)
    /** Compacts T and returns its non-empty classes, larger groups first. */
    def groupT(): Seq[Int] = {
      for (k <- tOf.indices) {
        val g = tOf(k); var m = 0; var j = 0
        while (j < tSize(k)) {
          if (inU(g(j)) && !inL(g(j))) { g(m) = g(j); m += 1 }
          j += 1
        }
        tSize(k) = m
      }
      tOf.indices.filter(tSize(_) > 0).sortBy(k => (-tSize(k), labels(k)))
    }
    var groups = groupT()
    while (groups.nonEmpty) {
      val candidates = groups.map(k => tOf(k)(rng.nextInt(tSize(k))))

      for (c <- candidates if inU(c) && !inL(c)) {
        val yc = y(c)
        // Distances from c to every other undivided sample, in U's order.
        var m = 0; var i = 0
        while (i < n) {
          if (inU(i) && i != c) {
            var s = 0.0; var k = 0
            while (k < p) { val e = x(i * p + k) - x(c * p + k); s += e * e; k += 1 }
            pos(m) = i; dist(m) = math.sqrt(s); oid(m) = ids(i); m += 1
          }
          i += 1
        }
        // The rho nearest neighbors, ascending; the first is the nearest.
        val near = Neighbors.kSmallest(dist, oid, m, rho)
        val centerOk = near.headOption match {
          case None => inL(c) = true; false // no neighbor left: becomes an orphan
          case Some(j) if y(pos(j)) == yc => true
          case Some(j) =>
            // Eq.2: heterogeneous count among the rho nearest neighbors.
            val h = near.count(k => y(pos(k)) != yc)
            if (h == near.length) {        // center is class noise
              remove(c); noise += pts(c); false
            } else if (h == 1) {           // the nearest neighbor is class noise
              remove(pos(j)); noise += pts(pos(j)); true
            } else {                       // indistinguishable: low-density
              inL(c) = true; false
            }
        }

        if (centerOk) {
          // Eq.3: the homogeneous samples strictly closer than the nearest
          // heterogeneous one still in U (purity 1.0 under distance ties).
          var hetD = Double.PositiveInfinity
          i = 0
          while (i < m) {
            if (y(pos(i)) != yc && inU(pos(i)) && dist(i) < hetD) hetD = dist(i)
            i += 1
          }
          // Eq.4: distance to the closest previously generated ball.
          val rConf = balls.iterator.map(gb => Point.dist(gb.center, pts(c).features) - gb.radius)
            .minOption.getOrElse(Double.PositiveInfinity)
          // Eq.5/6: the largest member distance within the conflict radius.
          var r = 0.0
          i = 0
          while (i < m) {
            if (y(pos(i)) == yc && dist(i) < hetD && dist(i) <= rConf && dist(i) > r) r = dist(i)
            i += 1
          }

          if (r > 0.0) {
            // Members within r (all closer than hetD, since r is a member distance).
            val inBall = (0 until m).filter(k => y(pos(k)) == yc && dist(k) <= r)
              .sortWith((a, b) => Neighbors.precedes(dist(a), oid(a), dist(b), oid(b)))
            val gb = GranularBall(pts(c).features, r, yc, inBall.map(k => pts(pos(k))).toVector :+ pts(c))
            balls += gb
            inBall.foreach(k => remove(pos(k)))
            remove(c)
          } else {
            inL(c) = true
          }
        }
      }
      groups = groupT()
    }

    // Orphan stage: every remaining undivided sample is its own ball.
    for (i <- 0 until n if inU(i)) balls += GranularBall(pts(i).features, 0.0, y(i), Vector(pts(i)))
    RDGBGResult(balls.toVector, noise.result())
  }
}
