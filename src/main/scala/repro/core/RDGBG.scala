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
    * Ids must be unique: U is keyed by id.
    */
  def generate(data: Seq[Point], rho: Int = 5, seed: Long = 42): RDGBGResult = {
    require(rho >= 2, s"density tolerance must be >= 2, got $rho")
    val rng = new Random(seed)

    // Undivided set U and low-density set L (L subset of U), keyed by id.
    val u = mutable.LinkedHashMap.empty[Long, Point]
    data.foreach(p => require(u.put(p.id, p).isEmpty, s"duplicate point id ${p.id}"))
    val l = mutable.LinkedHashSet.empty[Long]
    val balls = mutable.ArrayBuffer.empty[GranularBall]
    val noise = Vector.newBuilder[Point]

    // T = U - L, grouped by label, larger groups first.
    var t = u.values.toVector
    while (t.nonEmpty) {
      val groups = t.groupBy(_.label).toVector.sortBy { case (lab, ps) => (-ps.size, lab) }
      val candidates = groups.map { case (_, ps) => ps(rng.nextInt(ps.size)) }

      for (c <- candidates if u.contains(c.id) && !l.contains(c.id)) {
        // Distances from c to every other undivided sample.
        val others = u.valuesIterator.filter(_.id != c.id).toArray
        val d = others.map(_.dist(c))
        val nearest = Neighbors.kSmallest(d, others, 1).headOption
        val centerOk = nearest match {
          case None => l.add(c.id); false // no neighbor left: becomes an orphan
          case Some(n) if others(n).label == c.label => true
          case Some(n) =>
            // Eq.2: heterogeneous count among the rho nearest neighbors.
            val near = Neighbors.kSmallest(d, others, rho)
            val h = near.count(i => others(i).label != c.label)
            if (h == near.length) {        // center is class noise
              u.remove(c.id); noise += c; false
            } else if (h == 1) {           // the nearest neighbor is class noise
              u.remove(others(n).id); l.remove(others(n).id); noise += others(n); true
            } else {                       // indistinguishable: low-density
              l.add(c.id); false
            }
        }

        if (centerOk) {
          // Eq.3: the homogeneous samples strictly closer than the nearest
          // heterogeneous one still in U (purity 1.0 under distance ties).
          val hetD = others.indices.iterator
            .filter(i => others(i).label != c.label && u.contains(others(i).id))
            .map(d).minOption.getOrElse(Double.PositiveInfinity)
          val members = others.indices.filter(i => others(i).label == c.label && d(i) < hetD)
          // Eq.4: distance to the closest previously generated ball.
          val rConf = balls.iterator.map(gb => Point.dist(gb.center, c.features) - gb.radius)
            .minOption.getOrElse(Double.PositiveInfinity)
          // Eq.5/6: the largest member distance within the conflict radius.
          val r = members.iterator.map(d).filter(_ <= rConf).maxOption.getOrElse(0.0)

          if (r > 0.0) {
            val inBall = members.filter(d(_) <= r)
              .sortWith((i, j) => Neighbors.precedes(d(i), others(i).id, d(j), others(j).id))
            val gb = GranularBall(c.features, r, c.label, inBall.map(others).toVector :+ c)
            balls += gb
            gb.points.foreach { m => u.remove(m.id); l.remove(m.id) }
          } else {
            l.add(c.id)
          }
        }
      }
      t = u.valuesIterator.filterNot(p => l.contains(p.id)).toVector
    }

    // Orphan stage: every remaining undivided sample is its own ball.
    u.valuesIterator.foreach { p => balls += GranularBall(p.features, 0.0, p.label, Vector(p)) }
    RDGBGResult(balls.toVector, noise.result())
  }
}
