"""Run the benchmark over several seeds and summarise it, all workloads at
once.

    python3 perfbench/suite.py [--trace] [--out FILE]

For each of SEEDS, runs `perfbench/run.py --trace 0` once per workload of
BENCHMARK.json (workloads interleaved, so a change in machine load reaches
all of them) with the run length of BENCHMARK.json, applies its output checks, and
prints for every end-to-end metric and workload the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and the
metric's bound.  --trace adds one traced run per workload (first seed) and
prints the per-layer metrics.  --out writes everything as JSON.
Run from the root of a source checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(10))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]

    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            record, result = run_once(w, seed, seconds, 0)
            runs[w].append({"record": record, "result": result})
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"{w:7s} seed {seed:<4d} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"passes={record['passes']} {values}", flush=True)

    summary = {}
    print(f"\n{'workload':8s} {'metric':12s} {'unit':5s} {'median':>10s} "
          f"{'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for w in workloads:
        summary[w] = {}
        failed = sum(r["result"]["failed"] for r in runs[w])
        attempted = sum(r["result"]["attempted"] for r in runs[w])
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in runs[w]]
            stats = spread(values)
            summary[w][metric["name"]] = stats
            print(f"{w:8s} {metric['name']:12s} {metric['unit']:5s} "
                  f"{stats['median']:10.4f} {stats['q1']:10.4f} "
                  f"{stats['q3']:10.4f} {stats['spread']:7.3f} "
                  f"{metric['bound']:6.2f}")
        summary[w]["fail_ratio"] = {"failed": failed, "attempted": attempted,
                                    "value": failed / attempted}
        print(f"{w:8s} fail_ratio   {failed}/{attempted}")

    traced = {}
    if args.trace:
        for w in workloads:
            record, result = run_once(w, SEEDS[0], seconds, 1)
            traced[w] = {"record": record, "result": result}
            print(f"\ntraced {w} seed {SEEDS[0]} correct={result['correct']}")
            for name, m in result["metrics"].items():
                if m["value"]:
                    print(f"  {name:40s} {m['value']:.6g} {m['unit']}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"run_seconds": seconds, "seeds": SEEDS,
                       "summary": summary, "runs": runs, "traced": traced},
                      fh, indent=1)
            fh.write("\n")
    ok = all(r["result"]["correct"] for rs in runs.values() for r in rs)
    ok = ok and all(t["result"]["correct"] for t in traced.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
