"""stretchwalk benchmark: four seeded workloads, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload rate --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; BENCHMARK.json names both sets and their units.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A readable report
goes to standard error and the full record (environment, passes, failures
and, when traced, the spans) to ``benchmarks/out/``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"

MIN_JOBS = 100          # so that p90 has at least ten jobs beyond it
REFERENCE_CAL_S = 0.008   # the speed kernel's duration at the reference speed
REFERENCE_IMPORT_S = 0.008  # the import kernel's duration at the reference speed
SETUP_PROBES = 7        # fresh processes per run; see setup_seconds
PASS_CAP_S = 120.0      # stop starting passes here whatever the job count
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "STRETCHWALK_THREADS")


def pin_threads() -> int:
    """Cap the numeric libraries' thread pools at nproc before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def speed_kernel() -> float:
    """Seconds taken by a fixed piece of work shaped like the package's own.

    Scalar-callback ``quad`` calls, table builds on a 4,097-point grid, a
    loop of small-array numpy calls and table lookups for 131,072 draws.  It
    is timed next to every job: on a shared host the machine's speed drifts
    by a third from one minute to the next, and scaling each job by the
    kernel's time beside it gives the job's time at the reference speed.
    """
    import math

    import numpy as np
    from scipy.integrate import quad

    grid = np.linspace(0.0, 4.0, 4097)
    u = np.linspace(0.001, 0.999, 2000)
    x = np.linspace(0.0, 1.0, 256)
    draws = np.linspace(0.0, 1.0, 131_072)
    start = time.perf_counter()
    for c in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0):
        quad(lambda v: math.exp(-c * v * v - v), 0.0, 6.0, epsabs=0.0, epsrel=1e-10,
             limit=400)
        quad(lambda v: float(np.exp(-c * np.array([v]) ** 3)[0]), 0.0, 4.0, epsabs=0.0,
             epsrel=1e-10, limit=400)
    for _ in range(12):
        w = np.exp(-grid * grid)
        cdf = np.cumsum(w)
        np.interp(u, cdf / cdf[-1], grid)
    for _ in range(600):
        x = np.exp(-x) + 0.1
    for _ in range(2):
        np.interp(draws, cdf / cdf[-1], grid).sum()
    return time.perf_counter() - start


_MODULE_CODE = marshal.dumps(compile("\n".join(
    f"def f{i}(x, y=({i}, 'a{i}')):\n    return x + y[0]\n\n"
    f"class C{i}:\n    k = {i}\n\n    def m(self):\n        return self.k\n"
    for i in range(200)), "<import kernel>", "exec"))


def import_kernel() -> float:
    """Seconds taken by pure-Python work shaped like an import.

    Unmarshalling a module's code object and running its top level, which is
    what importing cached bytecode does.  The numeric speed kernel does not
    track import time on a shared host; this one does, and it runs before
    numpy is loaded.
    """
    start = time.perf_counter()
    for _ in range(3):
        exec(marshal.loads(_MODULE_CODE), {})
    return time.perf_counter() - start


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one tiny pass per run, for the benchmark's own tests")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(workload: str) -> int:
    """Child process: time importing the CLI and building the densities.

    The import is scaled by the import kernel timed just before and just
    after it, the density builds by the numeric speed kernel.
    """
    before = min(import_kernel() for _ in range(3))
    t0 = time.perf_counter()
    import stretchwalk.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    after = min(import_kernel() for _ in range(3))
    from workloads import WORKLOADS, build_model

    t1 = time.perf_counter()
    for spec in WORKLOADS[workload].models:
        build_model(spec)
    build_s = time.perf_counter() - t1
    import_scale = 2.0 * REFERENCE_IMPORT_S / (before + after)
    build_scale = REFERENCE_CAL_S / statistics.median(speed_kernel() for _ in range(5))
    print(json.dumps({"import_s": import_s * import_scale, "build_s": build_s * build_scale,
                      "raw_import_s": import_s, "raw_build_s": build_s,
                      "import_scale": import_scale, "build_scale": build_scale}))
    return 0


def setup_seconds(probes: list[dict]) -> float:
    """Median import time plus median build time over the setup probes.

    Taking the two medians apart drops a probe whose import or whose builds
    alone met a burst of load on the host.
    """
    return (statistics.median(p["import_s"] for p in probes)
            + statistics.median(p["build_s"] for p in probes))


def run_probes(workload: str, count: int) -> list[dict]:
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# -- passes ----------------------------------------------------------------------


@dataclass
class PassResult:
    """One pass: per-job latencies at the reference speed, and as measured."""

    jobs: list
    outputs: list | None
    latencies: list[float]
    raw: list[float]
    failures: dict[int, str]

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def run_pass(wl, models, ref, seed: int, index: int, smoke: bool, tracer=None) -> PassResult:
    """Run one pass; only the job calls are timed, never their checks.

    A job's latency is its wall time scaled by the reference kernel time over
    the mean of the speed kernel's times just before and just after it.
    """
    import numpy as np

    rng = np.random.default_rng([seed & (2**64 - 1), index, wl.code])
    jobs = wl.jobs(models, rng, smoke, ref)
    outputs, latencies, raw, failures = [], [], [], {}
    perf = time.perf_counter
    cal_before = speed_kernel()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
            tracer.active = True
        start = perf()
        try:
            out = job.run()
            reason = None
        except Exception as exc:  # a job that raises is a failed job, not a crash
            out, reason = None, f"{type(exc).__name__}: {exc}"
        raw.append(perf() - start)
        if tracer is not None:
            tracer.active = False
        cal_after = speed_kernel()
        latencies.append(raw[-1] * 2.0 * REFERENCE_CAL_S / (cal_before + cal_after))
        cal_before = cal_after
        if reason is None:
            try:
                reason = job.check(out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures[i] = reason
            out = None
        outputs.append(out)
    for i, reason in wl.check_pass(jobs, outputs).items():
        failures.setdefault(i, reason)
    return PassResult(jobs, outputs, latencies, raw, failures)


def keep_outputs(result: PassResult) -> None:
    """Drop the outputs that no run-level check reads once a pass is checked.

    Holding every trajectory of a run would add to peak RSS.
    """
    result.outputs = [out if job.meta.get("keep") else None
                      for job, out in zip(result.jobs, result.outputs)]


def check_run(wl, ref, passes: list[PassResult]) -> None:
    """Add the failures of the workload's run-level checks to their passes."""
    for (k, i), reason in wl.check_run(passes, ref).items():
        passes[k].failures.setdefault(i, reason)


# -- metrics ---------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(work, first: PassResult, setup_probes, builds, overhead) -> dict:
    """Per-layer metrics of a traced run, from the workload's first pass alone.

    Counts repeat exactly for a given seed.  A layer the workload never
    enters reads 0.  Span times are wall times as measured; ``cli.import_s``
    and ``trace.overhead_*`` are at the reference speed.
    """
    stat = work.get
    jobs = list(zip(first.jobs, first.outputs))
    is_out = [(j, o) for j, o in jobs if j.kind == "tilted_is" and o is not None]
    paths_out = [o for j, o in jobs if j.kind == "path" and o is not None]
    kernel = stat("density.kernel")
    pair_tables = stat("sampler.pair_conditional_table").calls
    m = {
        "density.build_pure_ms": builds["pure"],
        "density.build_sin_ms": builds["sin"],
        "density.kernel_calls": kernel.calls,
        "density.kernel_points": kernel.points,
        "density.points_per_call": _ratio(kernel.points, kernel.calls),
        "density.g_calls": stat("density.g").calls,
        "quadrature.quad_calls": stat("quadrature.quad").calls,
        "quadrature.table_builds": stat("quadrature.GridInverseCdf.build").calls,
        "quadrature.table_build_ms": stat("quadrature.GridInverseCdf.build").mean_ms(),
        "ratefn.tilt_solves": stat("ratefn.cramer_rate").calls,
        "ratefn.tilt_solve_ms": stat("ratefn.cramer_rate").mean_ms(),
        "ratefn.rate_table_s": stat("ratefn.CramerRate.build").outer_s,
        "ratefn.duality_s": stat("ratefn.CramerRate.duality_residuals").outer_s,
        "sampler.tilted_tables": stat("sampler.tilted_table").calls,
        "sampler.tilted_table_ms": stat("sampler.tilted_table").mean_ms(),
        "sampler.is_draws_per_s": _ratio(sum(j.meta["draws"] for j, _ in is_out),
                                         stat("sampler.importance_estimate").outer_s),
        "sampler.is_ess_ratio": _ratio(sum(o.n_eff / o.replications for _, o in is_out),
                                       len(is_out)),
        "sampler.pair_tables": pair_tables,
        "sampler.gibbs_updates_per_s": _ratio(pair_tables,
                                              stat("sampler.gibbs_fixed_sum").outer_s),
        "paths.path_ms": stat("paths.simulate_conditioned_path").mean_ms(),
        "paths.scan_ms": stat("paths.detect_segments").mean_ms(),
        "paths.fallback_ratio": _ratio(sum(bool(traj.note) for traj, _ in paths_out),
                                       len(paths_out)),
        "variational.brute_force_s": stat("variational.brute_force_infimum").outer_s,
        "smalln.survival_build_ms": stat("smalln.survival_build").mean_ms(),
        "smalln.exact_ms": _ratio(1000.0 * work.entry_s["smalln"], work.entry_calls["smalln"]),
        "conditions.evaluate_ms": stat("conditions.evaluate_conditions").mean_ms(),
        "cli.run_ms": stat("cli.run").mean_ms(),
        "cli.import_s": statistics.median(p["import_s"] for p in setup_probes),
        "trace.overhead_s": overhead["seconds"],
        "trace.overhead_ratio": overhead["ratio"],
    }
    for module, seconds in work.self_s.items():
        m[f"{module}.self_s"] = seconds
    return m


def reference_builds(count: int = 3) -> dict:
    """Median build time of one pure and one sin-perturbed density."""
    from workloads import build_model

    out = {}
    for key, spec in (("pure", "weibull:k=3"), ("sin", "power:beta=3/sin")):
        times = []
        for _ in range(count):
            start = time.perf_counter()
            build_model(spec)
            times.append(1000.0 * (time.perf_counter() - start))
        out[key] = statistics.median(times)
    return out


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
    }


def declared(trace: int) -> dict[str, str]:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# -- runs ------------------------------------------------------------------------


def run_untraced(args, wl, models, ref, record) -> tuple[dict, list[PassResult]]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, models, ref, args.seed, len(passes), args.smoke))
        keep_outputs(passes[-1])
        elapsed = time.perf_counter() - start
        jobs = sum(len(p.jobs) for p in passes)
        if args.smoke or elapsed >= PASS_CAP_S or (elapsed >= args.seconds
                                                   and jobs >= MIN_JOBS):
            break
    check_run(wl, ref, passes)
    latencies = [t for p in passes for t in p.latencies]
    attempted = len(latencies)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "setup_s": setup_seconds(record["setup_probes"]),
        "run_s": statistics.median(p.seconds for p in passes),
        "job_p50_ms": 1000.0 * statistics.median(latencies),
        "job_p90_ms": 1000.0 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, passes


def run_traced(args, wl, models, ref, record) -> tuple[dict, list[PassResult]]:
    from tracing import Tracer

    # Overhead pairs start until --seconds have passed since the first traced
    # pass began (at least one pair is always run).
    start = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    tracer.record_spans = True
    first = run_pass(wl, models, ref, args.seed, 0, args.smoke, tracer)
    tracer.uninstall()

    # Overhead: the same pass run traced and untraced, alternating which goes
    # first, under a second tracer so the first pass's counts stay as recorded.
    timer = Tracer()
    timer.record_spans = True
    passes, pairs = [first], []
    index = 1
    while True:
        timing = {}
        for traced in ((True, False) if index % 2 else (False, True)):
            if traced:
                timer.install()
            result = run_pass(wl, models, ref, args.seed, index, args.smoke,
                              timer if traced else None)
            timer.uninstall()
            timing[traced] = result.seconds
            keep_outputs(result)
            passes.append(result)
        pairs.append(timing)
        index += 1
        elapsed = time.perf_counter() - start
        if args.smoke or elapsed >= args.seconds or elapsed >= PASS_CAP_S:
            break
    check_run(wl, ref, passes)

    untraced = statistics.median(t[False] for t in pairs)
    extra = statistics.median(t[True] - t[False] for t in pairs)
    overhead = {"seconds": extra, "ratio": _ratio(extra, untraced)}
    metrics = layer_metrics(tracer, first, record["setup_probes"],
                            reference_builds(1 if args.smoke else 3), overhead)
    record["trace"] = {"missing_hooks": tracer.missing, "pairs": pairs,
                       "calls": {k: vars(v) for k, v in sorted(tracer.stats.items())},
                       "span_columns": ["job", "span", "parent", "name", "start_s", "end_s"],
                       "spans": tracer.spans}
    return metrics, passes


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    if not (SRC / "stretchwalk" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {SRC}/stretchwalk or {SPEC.name} is missing; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args.workload)

    import stretchwalk

    if Path(stretchwalk.__file__).resolve().parent != SRC / "stretchwalk":
        print(f"error: imported {stretchwalk.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, build_model

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    units = declared(args.trace)

    models = {spec: build_model(spec) for spec in wl.models}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(nproc)}
    record["setup_probes"] = run_probes(wl.name, 1 if args.smoke else SETUP_PROBES)
    ref = wl.prepare(models)
    runner = run_traced if args.trace else run_untraced
    metrics, passes = runner(args, wl, models, ref, record)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"{SPEC.name}", file=sys.stderr)
        return 2
    attempted = sum(len(p.jobs) for p in passes)
    failures = [{"pass": k, "job": i, "kind": p.jobs[i].kind, "reason": r}
                for k, p in enumerate(passes) for i, r in sorted(p.failures.items())]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record.update(result)
    record["failures"] = failures
    record["passes"] = [{"seconds": p.seconds, "raw_seconds": sum(p.raw),
                         "jobs": len(p.jobs), "latencies_s": p.latencies, "raw_s": p.raw,
                         "kinds": [j.kind for j in p.jobs]} for p in passes]
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{wl.name}-trace{args.trace}-seed{args.seed}.json"
    out_file.write_text(json.dumps(record, default=str) + "\n")

    env = record["environment"]
    print(f"stretchwalk benchmark: workload={wl.name} seed={args.seed} "
          f"trace={args.trace} jobs={attempted} passes={len(passes)} "
          f"failed={len(failures)}", file=sys.stderr)
    print(f"environment: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} threads={nproc}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}", file=sys.stderr)
    for f in failures[:10]:
        print(f"  FAILED pass {f['pass']} job {f['job']} ({f['kind']}): {f['reason']}",
              file=sys.stderr)
    print(f"record: {out_file.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
