package repro.jobs

import repro.core.GBABS
import repro.data.DatasetGen
import scala.util.Try

/** RD-GBG scaling: `GBABS.run` (RD-GBG + the borderline pass) on the S10
  * (magic) analog, p = 10, ρ = 5, seed 42, at N = 1k / 2k / 4k / 8k / 16k.
  * Each size runs once to warm up, then three timed runs; the median is
  * reported. Writes `BENCH_rdgbg.json` to the working directory with the
  * environment (nproc, JVM, max heap, git sha of the measured tree).
  *
  * Run: `sbt -batch "runMain repro.jobs.RdgbgScaling"`.
  */
object RdgbgScaling {
  val sizes = Seq(1000, 2000, 4000, 8000, 16000)
  val rho = 5
  val seed = 42L
  val repeats = 3

  def main(args: Array[String]): Unit = {
    val spec = DatasetGen.specs.find(_.id == "S10").get
    val rows = sizes.map { n =>
      val data = DatasetGen.generate(spec, maxN = n)
      val sampled = GBABS.run(data, rho, seed).sampled.size
      val times = Vector.fill(repeats) {
        val t0 = System.nanoTime()
        val res = GBABS.run(data, rho, seed)
        val s = (System.nanoTime() - t0) / 1e9
        require(res.sampled.size == sampled, "GBABS.run is not deterministic")
        s
      }
      val median = times.sorted.apply(repeats / 2)
      println(f"N = $n%6d  p = ${data.head.dim}%d  median $median%.3f s  runs ${times.map(t => f"$t%.3f").mkString(" ")}  sampled $sampled")
      f"""    {"n": $n, "median_s": $median%.4f, "runs_s": [${times.map(t => f"$t%.4f").mkString(", ")}], "sampled": $sampled}"""
    }
    // HEAD's sha, suffixed "-dirty" when tracked files differ from it.
    val sha = Try(scala.sys.process.Process(Seq("git", "describe", "--always", "--dirty", "--abbrev=40")).!!.trim)
      .getOrElse("unknown")
    val json =
      s"""{
         |  "bench": "GBABS.run on the S10 analog (p = 10, rho = $rho, seed $seed), median of $repeats after one warm-up run",
         |  "nproc": ${Runtime.getRuntime.availableProcessors},
         |  "jvm": "${sys.props("java.vm.name")} ${sys.props("java.vm.version")}",
         |  "max_heap_mb": ${Runtime.getRuntime.maxMemory / (1 << 20)},
         |  "git_sha": "$sha",
         |  "results": [
         |${rows.mkString(",\n")}
         |  ]
         |}
         |""".stripMargin
    java.nio.file.Files.write(java.nio.file.Paths.get("BENCH_rdgbg.json"), json.getBytes("UTF-8"))
    println("wrote BENCH_rdgbg.json")
  }
}
