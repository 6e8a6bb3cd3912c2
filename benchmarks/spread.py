"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workloads rate,paths,gibbs,oracle

Each workload runs untraced on seeds 1 to 10.  For every workload and
end-to-end metric this prints the median of the per-seed values, their first
and third quartiles (statistics.quantiles, n=4) and the spread: the
interquartile distance as a share of the median.  A spread must stay under a
third of the metric's bound in BENCHMARK.json.  ``raw_run_s`` is the same
summary of the median pass time before scaling to the reference speed, read
from each run's record.  ``--out FILE`` writes the summary with every run's values and the
environment, which is how ``baseline.json`` is made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-600:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(workload: str, seed: int) -> dict:
    return json.loads((HERE / "out" / f"{workload}-trace0-seed{seed}.json").read_text())


def raw_run_s(workload: str, seed: int) -> float:
    record = record_of(workload, seed)
    return statistics.median(p["raw_seconds"] for p in record["passes"])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(mid) if mid else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="rate,paths,gibbs,oracle")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "trace": 0,
              "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in SEEDS:
            start = time.perf_counter()
            result = run_once(workload, seed, spec["run_seconds"])
            result["wall_s"] = time.perf_counter() - start
            result["raw_run_s"] = raw_run_s(workload, seed)
            runs.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, "
                  f"{result['attempted']} jobs, {result['failed']} failed", file=sys.stderr)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values) | {"unit": runs[0]["metrics"][name]["unit"],
                                                 "values": values}
            steady = metrics[name]["spread"] < bounds[name] / 3
            ok = ok and steady
            print(f"  {workload:7s} {name:28s} median {metrics[name]['median']:12.6g} "
                  f"spread {metrics[name]['spread']:7.4f}  bound/3 {bounds[name] / 3:.4f}"
                  + ("" if steady else "  WIDE"))
        raw = [r["raw_run_s"] for r in runs]
        unscaled = summarize(raw) | {"unit": "s", "values": raw}
        print(f"  {workload:7s} {'raw_run_s (unscaled)':28s} median {unscaled['median']:12.6g} "
              f"spread {unscaled['spread']:7.4f}")
        ok = ok and all(r["correct"] for r in runs)
        report["workloads"][workload] = {
            "metrics": metrics,
            "raw_run_s": unscaled,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
        }
    if args.out:
        report["environment"] = record_of(workload, SEEDS[-1])["environment"]
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
