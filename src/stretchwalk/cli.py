"""Command-line front end: deterministic runs, file emission, verification.

Every command resolves its configuration from flags (optionally overridden
by a JSON config file), derives per-task seeds from the root seed, and
emits either CSV or JSON.  Primary outputs are byte-identical across
reruns with the same configuration; timestamps live only in the
``<name>.meta.json`` sidecar written next to file outputs.

Exit codes: 0 success, 1 usage, 2 numeric failure (the originating error
class name goes to stderr), 3 acceptance failure from ``verify``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from .conditions import PRESETS, InversePower, SequencePlan, evaluate_conditions
from .density import PowerExponent, parse_exponent, parse_model, pure_density
from .errors import StretchwalkError
from .paths import EndValueAtLeast, detect_segments, estimate_p_ak, simulate_conditioned_path
from .ratefn import CramerRate, tail_equivalence
from .sampler import METHODS, estimate_localization
from .seeding import derive_seed
from .variational import BandEvent, brute_force_infimum, closed_form_bounds

_FORMATS = ("csv", "json")


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


def _require(ns: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(ns, n, None) is None]
    if missing:
        raise UsageError(f"{ns.command}: missing required flag(s): "
                         + ", ".join("--" + n for n in missing))


def _ints(value, flag: str) -> list[int]:
    try:
        if isinstance(value, str):
            return [int(part) for part in value.split(",") if part]
        if isinstance(value, (list, tuple)):
            return [int(v) for v in value]
        return [int(value)]
    except (TypeError, ValueError):
        raise UsageError(f"--{flag} expects an integer or comma list") from None


def _floats(value, flag: str) -> list[float]:
    try:
        if isinstance(value, str):
            return [float(part) for part in value.split(",") if part]
        if isinstance(value, (list, tuple)):
            return [float(v) for v in value]
        return [float(value)]
    except (TypeError, ValueError):
        raise UsageError(f"--{flag} expects a number or comma list") from None


def _float1(value, flag: str) -> float:
    vals = _floats(value, flag)
    if len(vals) != 1:
        raise UsageError(f"--{flag} expects exactly one number here")
    return vals[0]


def _int1(value, flag: str) -> int:
    vals = _ints(value, flag)
    if len(vals) != 1:
        raise UsageError(f"--{flag} expects exactly one integer here")
    return vals[0]


def _apply_config(ns: argparse.Namespace) -> None:
    if not getattr(ns, "config", None):
        return
    try:
        with open(ns.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if not hasattr(ns, attr) or attr in ("command", "config"):
            raise UsageError(f"config key {key!r} is not a flag of {ns.command!r}")
        setattr(ns, attr, value)


# -- emission ----------------------------------------------------------------


def _fmt_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _render_csv(seed: int, columns: list[str], rows: list[tuple]) -> str:
    lines = [f"# seed={seed}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(payload: dict) -> str:
    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [scrub(v) for v in obj]
        if isinstance(obj, (bool, np.bool_)):
            return bool(obj)
        if isinstance(obj, (int, np.integer)):
            return int(obj)
        if isinstance(obj, (float, np.floating)):
            return float(obj)
        return obj

    return json.dumps(scrub(payload), sort_keys=True, indent=2) + "\n"


def _write_output(ns: argparse.Namespace, name: str, text: str, extension: str) -> None:
    if getattr(ns, "out", None) is None:
        sys.stdout.write(text)
        return
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.{extension}").write_text(text, encoding="utf-8")
    meta = {
        "command": ns.command,
        "config": {
            k: v for k, v in sorted(vars(ns).items())
            if k not in ("command",) and v is not None
        },
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    (out_dir / f"{name}.meta.json").write_text(_render_json(meta), encoding="utf-8")


def _emit_rows(ns: argparse.Namespace, name: str, columns: list[str],
               rows: list[tuple], summary: dict) -> None:
    if ns.format == "csv":
        _write_output(ns, name, _render_csv(ns.seed, columns, rows), "csv")
    else:
        payload = dict(summary)
        payload["seed"] = ns.seed
        payload["rows"] = [
            {col: row[i] for i, col in enumerate(columns)} for row in rows
        ]
        _write_output(ns, name, _render_json(payload), "json")


# -- commands ----------------------------------------------------------------


def _cmd_bounds(ns: argparse.Namespace) -> int:
    _require(ns, "model", "n", "a", "eps")
    if str(ns.model).endswith("/sin"):
        raise UsageError("bounds evaluates the convex closed forms; "
                         "use a pure exponent spec")
    exponent = parse_exponent(ns.model)
    model = pure_density(exponent) if ns.oracle else None
    columns = ["n", "a", "eps", "high_exit", "low_exit", "escape_infimum",
               "sum_infimum", "escape_gap", "reciprocal_gap", "volume_correction"]
    if ns.oracle:
        columns += ["oracle_escape", "oracle_rel_gap"]
    rows = []
    for n in _ints(ns.n, "n"):
        for a in _floats(ns.a, "a"):
            for eps in _floats(ns.eps, "eps"):
                ev = BandEvent(n=n, a=a, eps=eps)
                b = closed_form_bounds(exponent, ev)
                row = (n, a, eps, b.high_exit, b.low_exit, b.escape_infimum,
                       b.sum_infimum, b.escape_gap, b.reciprocal_gap,
                       b.volume_correction)
                if ns.oracle:
                    oracle = brute_force_infimum(model, ev, "IccC")
                    rel = abs(b.escape_infimum - oracle) / max(1.0, abs(oracle))
                    row += (oracle, rel)
                rows.append(row)
    _emit_rows(ns, "bounds", columns, rows, {"model": ns.model})
    return 0


def _cmd_conditions(ns: argparse.Namespace) -> int:
    _require(ns, "plan")
    if ns.plan not in PRESETS:
        raise UsageError(f"unknown plan {ns.plan!r}; presets: "
                         + ", ".join(sorted(PRESETS)))
    preset = PRESETS[ns.plan]
    exponent = preset.exponent()
    plan = preset.plan
    if ns.beta is not None:
        exponent = PowerExponent(_float1(ns.beta, "beta"))
    if ns.alpha is not None:
        plan = SequencePlan(
            a_form=InversePower(alpha=_float1(ns.alpha, "alpha")),
            eps_form=plan.eps_form,
        )
    n_grid = _ints(ns.n, "n") if ns.n is not None else list(preset.n_grid)
    report = evaluate_conditions(exponent, plan, n_grid)
    columns = ["n", "a", "eps", "ratio_growth", "ratio32", "ratio33", "H", "G"]
    rows = [
        (r.n, r.a, r.eps, r.ratio_growth, r.ratio32, r.ratio33, r.H, r.G)
        for r in report.rows
    ]
    summary = {
        "plan": ns.plan,
        "growth": report.growth,
        "c32_trend": report.c32_trend,
        "c33_trend": report.c33_trend,
        "final_ratio32": report.final_ratio32,
    }
    _emit_rows(ns, "conditions", columns, rows, summary)
    return 0


def _cmd_rate(ns: argparse.Namespace) -> int:
    _require(ns, "model", "a")
    model = parse_model(ns.model)
    x_max = _float1(ns.a, "a")
    table = CramerRate.build(model, x_max)
    columns = ["x", "I", "t_star"]
    rows = [(x, i, t) for x, i, t in zip(table.x, table.I, table.t_star)]
    value_res, grad_res = table.duality_residuals()
    summary = {
        "model": ns.model,
        "x_max": x_max,
        "duality_value_residual": value_res,
        "duality_gradient_residual": grad_res,
        "derivative_residual": table.derivative_residual(),
        "tail_equivalence_x_max": tail_equivalence(model, x_max),
    }
    _emit_rows(ns, "rate", columns, rows, summary)
    return 0


def _cmd_localize(ns: argparse.Namespace) -> int:
    _require(ns, "model", "n", "a", "eps")
    model = parse_model(ns.model)
    a = _float1(ns.a, "a")
    eps = _float1(ns.eps, "eps")
    columns = ["n", "p_hat", "std_err", "n_eff", "replications"]
    rows = []
    for i, n in enumerate(_ints(ns.n, "n")):
        est = estimate_localization(model, n, a, eps, ns.method,
                                    budget=ns.trials, seed=derive_seed(ns.seed, i))
        rows.append((n, est.p_hat, est.std_err, est.n_eff, est.replications))
    summary = {"model": ns.model, "a": a, "eps": eps,
               "method": ns.method, "trials": ns.trials}
    _emit_rows(ns, "localize", columns, rows, summary)
    return 0


def _cmd_paths(ns: argparse.Namespace) -> int:
    _require(ns, "model", "n", "a", "k", "alpha")
    model = parse_model(ns.model)
    n = _int1(ns.n, "n")
    a = _float1(ns.a, "a")
    k = _int1(ns.k, "k")
    alpha = _float1(ns.alpha, "alpha")
    traj = simulate_conditioned_path(model, n, a, EndValueAtLeast(n * a),
                                     seed=derive_seed(ns.seed, 0))
    report = detect_segments(traj, k, alpha)
    est = estimate_p_ak(model, n, a, k, alpha, replications=ns.trials, seed=ns.seed)
    if ns.format == "csv":
        rows = [
            (j, inc, ps)
            for j, (inc, ps) in enumerate(zip(traj.increments, traj.partial_sums), start=1)
        ]
        _emit_rows(ns, "paths", ["j", "increment", "partial_sum"], rows, {})
    else:
        payload = {
            "seed": ns.seed,
            "model": ns.model,
            "n": n,
            "a": a,
            "k": k,
            "alpha": alpha,
            "argmax_j": report.argmax_j,
            "max_slope": report.max_slope,
            "a_k_event": report.a_k_event,
            "p_ak": est.p_hat,
            "p_ak_std_err": est.std_err,
            "replications": est.replications,
            "note": traj.note,
        }
        _write_output(ns, "paths", _render_json(payload), "json")
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    from . import acceptance

    if ns.criteria is not None:
        wanted = sorted(set(_ints(ns.criteria, "criteria")))
        bad = [i for i in wanted if not 1 <= i <= 11]
        if bad:
            raise UsageError(f"--criteria entries must lie in 1..11, got {bad}")
    else:
        wanted = None
    results = acceptance.run_all(criteria=wanted, root_seed=ns.seed)
    payload = {
        "seed": ns.seed,
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"index": r.index, "passed": r.passed, "details": r.details}
            for r in results
        ],
    }
    _write_output(ns, "verify", _render_json(payload), "json")
    if getattr(ns, "out", None) is not None:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"criterion {r.index:2d}: {status}  ({r.runtime_s:.1f}s)",
                  file=sys.stderr)
    return 0 if payload["all_passed"] else 3


_HANDLERS = {
    "bounds": _cmd_bounds,
    "conditions": _cmd_conditions,
    "rate": _cmd_rate,
    "localize": _cmd_localize,
    "paths": _cmd_paths,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stretchwalk",
        description="Conditioned-walk localization toolkit",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name: str, help_text: str, flags: list[str]) -> None:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            if flag == "--oracle":
                p.add_argument(flag, action="store_true",
                               help="also run the brute-force search")
            elif flag == "--method":
                p.add_argument(flag, default=METHODS[0], choices=METHODS)
            elif flag == "--trials":
                p.add_argument(flag, type=int,
                               default=50 if name == "paths" else 20_000)
            else:
                p.add_argument(flag)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output directory (default: stdout)")
        p.add_argument("--format", default="csv" if name != "verify" else "json",
                       choices=_FORMATS)
        p.add_argument("--config", help="JSON file whose keys override flags")

    add("bounds", "closed-form exit infima over an (n, a, eps) grid",
        ["--model", "--n", "--a", "--eps", "--oracle"])
    add("conditions", "localization ratio diagnostics along a plan",
        ["--plan", "--beta", "--alpha", "--n"])
    add("rate", "rate-function table export and duality diagnostics",
        ["--model", "--a"])
    add("localize", "conditional band probability over an n grid",
        ["--model", "--n", "--a", "--eps", "--method", "--trials"])
    add("paths", "conditioned trajectory, window scan, and hit frequency",
        ["--model", "--n", "--a", "--k", "--alpha", "--trials"])
    add("verify", "run acceptance criteria and report machine-readable results",
        ["--criteria"])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        _apply_config(ns)
        return _HANDLERS[ns.command](ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except StretchwalkError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run(argv) -> int:
    """Programmatic entry point mirroring the console script."""
    return main(list(argv))


if __name__ == "__main__":
    sys.exit(main())
