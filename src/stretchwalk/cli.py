"""Command-line front end: deterministic runs, file emission, verification.

Every command resolves its configuration from flags, derives per-task
seeds from the root seed, and emits either CSV or JSON.  ``--config FILE``
names a JSON object whose keys become ``--key=value`` arguments after the
command line, so config values are parsed and checked exactly like flags
and override them: an array is a comma list and a boolean sets or clears
``--oracle``.  Primary outputs are byte-identical across
reruns with the same configuration; timestamps live only in the
``<name>.meta.json`` sidecar written next to file outputs.

Exit codes: 0 success, 1 usage, 2 numeric failure (the originating error
class name goes to stderr), 3 acceptance failure from ``verify``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
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


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _criterion(text: str) -> int:
    index = int(text)
    if not 1 <= index <= 11:
        raise ValueError(text)
    return index


def _switch(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


# argparse names a type by its __name__ in "invalid <name> value" messages.
_finite.__name__ = "finite float"
_criterion.__name__ = "criterion (1..11)"
_switch.__name__ = "true|false"


def _comma_list(item):
    def parse(text: str) -> list:
        return [item(part) for part in text.split(",")]

    parse.__name__ = f"{item.__name__} list"
    return parse


def _config_path(argv: list[str]) -> str | None:
    pre = argparse.ArgumentParser(prog="stretchwalk", add_help=False)
    pre.add_argument("--config")
    return pre.parse_known_args(argv)[0].config


def _config_word(key: str, value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, float)):
        return json.dumps(value)
    raise UsageError(f"config key {key!r} must hold a string, number, boolean "
                     "or an array of them")


def _config_args(path: str | None) -> list[str]:
    """The keys of the JSON config file as ``--key=value`` arguments: an
    array joins with commas and a boolean reads true or false."""
    if path is None:
        return []
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    args = []
    for key, value in cfg.items():
        if key and "config".startswith(key):  # --config or an abbreviation of it
            raise UsageError(f"config key {key!r} names --config")
        if isinstance(value, list):
            value = ",".join(_config_word(key, v) for v in value)
        args.append(f"--{key}={_config_word(key, value)}")
    return args


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
    if ns.out is None:
        sys.stdout.write(text)
        return
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.{extension}").write_text(text, encoding="utf-8")
    meta = {
        "command": ns.command,
        "config": {
            k: v for k, v in sorted(vars(ns).items())
            if k != "command" and v is not None
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
    if ns.model.endswith("/sin"):
        raise UsageError("bounds evaluates the convex closed forms; "
                         "use a pure exponent spec")
    exponent = parse_exponent(ns.model)
    model = pure_density(exponent) if ns.oracle else None
    columns = ["n", "a", "eps", "high_exit", "low_exit", "escape_infimum",
               "sum_infimum", "escape_gap", "reciprocal_gap", "volume_correction"]
    if ns.oracle:
        columns += ["oracle_escape", "oracle_rel_gap"]
    rows = []
    for n in ns.n:
        for a in ns.a:
            for eps in ns.eps:
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
    preset = PRESETS[ns.plan]
    exponent = preset.exponent()
    plan = preset.plan
    if ns.beta is not None:
        exponent = PowerExponent(ns.beta)
    if ns.alpha is not None:
        plan = SequencePlan(
            a_form=InversePower(alpha=ns.alpha),
            eps_form=plan.eps_form,
        )
    n_grid = ns.n if ns.n is not None else list(preset.n_grid)
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
    model = parse_model(ns.model)
    x_max = ns.a
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
    model = parse_model(ns.model)
    a, eps = ns.a, ns.eps
    columns = ["n", "p_hat", "std_err", "n_eff", "replications", "wilson_lo", "wilson_hi"]
    rows = []
    for i, n in enumerate(ns.n):
        est = estimate_localization(model, n, a, eps, ns.method,
                                    budget=ns.trials, seed=derive_seed(ns.seed, i))
        rows.append((n, est.p_hat, est.std_err, est.n_eff, est.replications,
                     *est.wilson_interval()))
    summary = {"model": ns.model, "a": a, "eps": eps,
               "method": ns.method, "trials": ns.trials}
    _emit_rows(ns, "localize", columns, rows, summary)
    return 0


def _cmd_paths(ns: argparse.Namespace) -> int:
    model = parse_model(ns.model)
    n, a, k, alpha = ns.n, ns.a, ns.k, ns.alpha
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
            "p_ak_wilson_lo": est.wilson_interval()[0],
            "p_ak_wilson_hi": est.wilson_interval()[1],
            "replications": est.replications,
            "note": traj.note,
        }
        _write_output(ns, "paths", _render_json(payload), "json")
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    from . import acceptance

    wanted = sorted(set(ns.criteria)) if ns.criteria is not None else None
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
    if ns.out is not None:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"criterion {r.index:2d}: {status}  ({r.runtime_s:.1f}s)",
                  file=sys.stderr)
    return 0 if payload["all_passed"] else 3


_INTS = {"type": _comma_list(int), "required": True}
_FLOATS = {"type": _comma_list(_finite), "required": True}
_INT = {"type": int, "required": True}
_FLOAT = {"type": _finite, "required": True}
_MODEL = {"required": True}

# Each subcommand's handler, help and own flags; every one also takes
# --seed, --out, --format and --config.
_COMMANDS = {
    "bounds": (_cmd_bounds, "closed-form exit infima over an (n, a, eps) grid", {
        "--model": _MODEL, "--n": _INTS, "--a": _FLOATS, "--eps": _FLOATS,
        "--oracle": {"type": _switch, "nargs": "?", "const": True, "default": False,
                     "metavar": "true|false", "help": "also run the brute-force search"},
    }),
    "conditions": (_cmd_conditions, "localization ratio diagnostics along a plan", {
        "--plan": {"choices": sorted(PRESETS), "required": True, "metavar": "PLAN",
                   "help": "one of %(choices)s"},
        "--beta": {"type": _finite}, "--alpha": {"type": _finite},
        "--n": {"type": _comma_list(int)},
    }),
    "rate": (_cmd_rate, "rate-function table export and duality diagnostics", {
        "--model": _MODEL, "--a": _FLOAT,
    }),
    "localize": (_cmd_localize, "conditional band probability over an n grid", {
        "--model": _MODEL, "--n": _INTS, "--a": _FLOAT, "--eps": _FLOAT,
        "--method": {"choices": METHODS, "default": METHODS[0]},
        "--trials": {"type": int, "default": 20_000},
    }),
    "paths": (_cmd_paths, "conditioned trajectory, window scan, and hit frequency", {
        "--model": _MODEL, "--n": _INT, "--a": _FLOAT, "--k": _INT, "--alpha": _FLOAT,
        "--trials": {"type": int, "default": 50},
    }),
    "verify": (_cmd_verify, "run acceptance criteria and report machine-readable results", {
        "--criteria": {"type": _comma_list(_criterion)},
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stretchwalk",
        description="Conditioned-walk localization toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output directory (default: stdout)")
        p.add_argument("--format", default="json" if name == "verify" else "csv",
                       choices=_FORMATS)
        p.add_argument("--config", help="JSON file whose keys override flags")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv + _config_args(_config_path(argv)))
        if ns.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[ns.command][0](ns)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
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
