package repro.jobs

import repro.SparkSpec
import repro.exp.BenchConfig

class JobContextSpec extends SparkSpec {

  test("no flags give the BenchConfig defaults") {
    assert(JobContext.config(Array.empty) == BenchConfig())
  }

  test("a flag overrides only its own field") {
    assert(JobContext.config(Array("--maxN", "500")) == BenchConfig().copy(maxN = 500))
  }

  test("an unknown flag is rejected, naming it") {
    val e = intercept[IllegalArgumentException] { JobContext.config(Array("--maxn", "500")) }
    assert(e.getMessage.contains("--maxn"))
  }

  test("a trailing flag with no value is rejected, naming it") {
    val e = intercept[IllegalArgumentException] { JobContext.config(Array("--maxN", "500", "--rho")) }
    assert(e.getMessage.contains("--rho"))
  }

  test("a non-integer value is rejected, naming the flag") {
    val e = intercept[IllegalArgumentException] { JobContext.config(Array("--folds", "five")) }
    assert(e.getMessage.contains("--folds"))
  }
}
