"""Run the benchmark over several seeds and summarise each metric.

From the repository root:
    python3 gbbench/spread.py --seeds 1,2,3,4,5,6,7,8,9,10 [--trace 1] [--json out.json] [workload ...]

For every workload and metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
the figure BENCHMARK.json's bounds are checked against. With --json the
same summary is written to a file, in the layout of gbbench/baseline.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "gbbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-3000:]}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1]), wall


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json")
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    out = {}
    for w in names:
        values, walls, bad, env = {}, [], [], {}
        for s in seeds:
            info, res, wall = run_once(w, s, a.seconds, a.trace)
            walls.append(wall)
            env = {k: info[k] for k in ("nproc", "jvm", "xmx_mb", "spark_master", "git_sha", "source_sha1")}
            if not res["correct"] or res["failed"]:
                bad.append({"seed": s, "errors": info.get("errors")})
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        out[w] = {"seeds": seeds, "incorrect_runs": bad, "run_wall_s": summarise(walls), "env": env,
                  "metrics": {k: summarise(v) for k, v in sorted(values.items())}}
        print(f"== {w}: {len(seeds)} runs, wall median {statistics.median(walls):.1f} s, incorrect {bad}")
        for k, m in out[w]["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {k:28s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} spread {spread}")
        sys.stdout.flush()
    if a.json:
        with open(a.json, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
