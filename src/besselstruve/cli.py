"""Command-line surface: function evaluation, single audits, grid sweeps.

Subcommands
-----------
eval-kernel    S_alpha(z)
eval-wright    Wright series at z (parameter pairs via repeated --upper/--lower)
eval-pfq       generalized hypergeometric series at z
oberhettinger  closed base integral
quad           Gauss-Jacobi quadrature of one integral
audit          one identity at one parameter point
sweep          one identity over a grid (built-in default or a JSON grid file)

Exit status: 0 success, 2 domain/precondition error (the message names the
violated condition, e.g. the base integral's 0 < mu < lam requirement),
3 numerical non-convergence.  A run can also be described by a JSON config
file: {"command": ..., "params": {...}, "tol": ..., "output_format": ...,
"output_path": ...}; unknown keys are rejected.

Everything is deterministic: no randomness, no environment variables, and
repeated runs with the same arguments produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audit import Grid, audit_point, audit_sweep, default_grid
from .errors import DomainError, NonConvergenceError
from .kernels import KernelChoice, as_power_series, kernel_eval, unit_kernel
from .quadrature import ArgForm, IntegralSpec, oberhettinger_closed, quad_lhs
from .report import render_report
from .series import SeriesValue
from .wright import WrightSpec, pfq_eval, wright_eval

__all__ = ["main"]

_TOL_MIN, _TOL_MAX = 1e-14, 1e-2
_CONFIG_KEYS = {"command", "params", "tol", "output_format", "output_path"}
_COMMANDS = ("eval-kernel", "eval-wright", "eval-pfq", "oberhettinger",
             "quad", "audit", "sweep")

_KERNEL_NAMES = {
    "s_alpha": KernelChoice.S_ALPHA,
    "exp": KernelChoice.EXP,
    "expm1_over_w": KernelChoice.EXPM1_OVER_W,
    "i0_plus_l0": KernelChoice.I0_PLUS_L0,
    "two_i1_plus_l1": KernelChoice.TWO_I1_PLUS_L1,
    "one": None,
}


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not _TOL_MIN <= tol <= _TOL_MAX:
        raise DomainError(f"tol must lie in [{_TOL_MIN}, {_TOL_MAX}], got {tol}")
    return tol


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"expected a 'value,weight' pair, got {text!r}")
    return float(parts[0]), float(parts[1])


def _series_payload(sv: SeriesValue) -> dict:
    return {
        "value": sv.value,
        "terms_used": sv.terms_used,
        "tail_estimate": sv.tail_estimate,
        "converged": sv.converged,
    }


def _require_params(params: dict, required: tuple, optional: dict) -> dict:
    known = set(required) | set(optional)
    unknown = set(params) - known
    if unknown:
        raise DomainError(f"unknown parameter keys: {sorted(unknown)}")
    missing = [k for k in required if k not in params]
    if missing:
        raise DomainError(f"missing required parameters: {missing}")
    out = dict(optional)
    out.update(params)
    return out


def _make_kernel(name: str, alpha):
    if name not in _KERNEL_NAMES:
        raise DomainError(f"unknown kernel {name!r}; choose from {sorted(_KERNEL_NAMES)}")
    if name == "one":
        return unit_kernel()
    if name == "s_alpha":
        if alpha is None:
            raise DomainError("kernel s_alpha requires alpha")
        return as_power_series(KernelChoice.S_ALPHA, float(alpha))
    return as_power_series(_KERNEL_NAMES[name])


def _load_grid(grid_arg, identity_id: str) -> Grid:
    if grid_arg in (None, "default"):
        return default_grid(identity_id)
    try:
        with open(grid_arg, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read grid file {grid_arg!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON in grid file {grid_arg!r}: {exc}") from exc
    axes = {"alpha", "mu", "dlam", "a", "gy"}
    unknown = set(data) - axes
    if unknown:
        raise DomainError(f"unknown grid axes: {sorted(unknown)}; expected {sorted(axes)}")
    base = default_grid(identity_id)
    return Grid(
        alpha=tuple(float(v) for v in data.get("alpha", base.alpha)),
        mu=tuple(float(v) for v in data.get("mu", base.mu)),
        dlam=tuple(float(v) for v in data.get("dlam", base.dlam)),
        a=tuple(float(v) for v in data.get("a", base.a)),
        gy=tuple(float(v) for v in data.get("gy", base.gy)),
    )


def _run_command(command: str, params: dict, tol: float):
    """Execute a command; returns (payload_dict, records_or_None, converged)."""
    if command == "eval-kernel":
        p = _require_params(params, ("alpha", "z"), {})
        sv = kernel_eval(float(p["alpha"]), float(p["z"]), tol)
        return _series_payload(sv), None, sv.converged
    if command == "eval-wright":
        p = _require_params(params, ("upper", "lower", "z"), {})
        spec = WrightSpec(upper=tuple(tuple(map(float, pr)) for pr in p["upper"]),
                          lower=tuple(tuple(map(float, pr)) for pr in p["lower"]))
        sv = wright_eval(spec, float(p["z"]), tol)
        return _series_payload(sv), None, sv.converged
    if command == "eval-pfq":
        p = _require_params(params, ("z",), {"upper": (), "lower": ()})
        sv = pfq_eval([float(v) for v in p["upper"]],
                      [float(v) for v in p["lower"]], float(p["z"]), tol)
        return _series_payload(sv), None, sv.converged
    if command == "oberhettinger":
        p = _require_params(params, ("mu", "lambda", "a"), {})
        value = oberhettinger_closed(float(p["mu"]), float(p["lambda"]), float(p["a"]))
        return {"value": value}, None, True
    if command == "quad":
        p = _require_params(params, ("mu", "lambda", "a"),
                            {"gamma": 1.0, "y": 0.0, "arg_form": "fixed",
                             "kernel": "one", "alpha": None})
        spec = IntegralSpec(mu=float(p["mu"]), lam=float(p["lambda"]),
                            a=float(p["a"]), gamma=float(p["gamma"]),
                            y=float(p["y"]), arg_form=ArgForm(p["arg_form"]))
        kernel = _make_kernel(p["kernel"], p["alpha"])
        res = quad_lhs(spec, kernel, tol)
        return {
            "value": res.value,
            "abs_err_estimate": res.abs_err_estimate,
            "n_evals": res.n_evals,
            "subdivisions": res.subdivisions,
        }, None, True
    if command == "audit":
        p = _require_params(params, ("id", "mu", "lambda", "a", "y"),
                            {"gamma": 1.0, "alpha": None})
        rec = audit_point(
            p["id"], mu=float(p["mu"]), lam=float(p["lambda"]), a=float(p["a"]),
            y=float(p["y"]), gamma=float(p["gamma"]),
            alpha=None if p["alpha"] is None else float(p["alpha"]), tol=tol)
        return {"verdict": rec.verdict}, [rec], True
    if command == "sweep":
        p = _require_params(params, ("id",), {"grid": "default"})
        grid = _load_grid(p["grid"], p["id"])
        records = audit_sweep(p["id"], grid, tol)
        return {"points": len(records)}, records, True
    raise DomainError(f"unknown command {command!r}; expected one of {_COMMANDS}")


def _emit(payload: dict, records, output_format: str, output_path):
    if records is not None:
        text = render_report(records, output_format)
    elif output_format == "json":
        parts = []
        for key, val in payload.items():
            if isinstance(val, bool):
                parts.append(f'"{key}": {str(val).lower()}')
            elif isinstance(val, float):
                parts.append(f'"{key}": {format(val, ".17g")}')
            else:
                parts.append(f'"{key}": {val}')
        text = "{" + ", ".join(parts) + "}\n"
    else:
        # text/csv for scalar results: value first, diagnostics after
        lines = []
        for key, val in payload.items():
            if isinstance(val, float):
                lines.append(f"{key} = {format(val, '.12g')}")
            else:
                lines.append(f"{key} = {val}")
        text = "\n".join(lines) + "\n"
    if output_path is not None:
        try:
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write output to {output_path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _add_common(sp):
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="tolerance (relative), within [1e-14, 1e-2]")
    sp.add_argument("--format", dest="output_format", default="text",
                    choices=("text", "json", "csv"), help="output format")
    sp.add_argument("--output", dest="output_path", default=None,
                    help="write output to this file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselstruve",
        description=("Evaluate Bessel-Struve / Wright special functions and "
                     "audit the closed-form integral identities numerically."))
    parser.add_argument("--config", default=None,
                        help="JSON run config {command, params, tol, "
                             "output_format, output_path}")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("eval-kernel", help="evaluate S_alpha(z)")
    sp.add_argument("--alpha", type=float, required=True, help="order (> -1)")
    sp.add_argument("--z", type=float, required=True)
    _add_common(sp)

    sp = sub.add_parser("eval-wright", help="evaluate a Wright series")
    sp.add_argument("--upper", action="append", default=[], metavar="A,W",
                    help="numerator pair 'value,weight' (repeatable)")
    sp.add_argument("--lower", action="append", default=[], metavar="B,W",
                    help="denominator pair 'value,weight' (repeatable)")
    sp.add_argument("--z", type=float, required=True)
    _add_common(sp)

    sp = sub.add_parser("eval-pfq", help="evaluate a pFq series")
    sp.add_argument("--upper", action="append", type=float, default=[])
    sp.add_argument("--lower", action="append", type=float, default=[])
    sp.add_argument("--z", type=float, required=True)
    _add_common(sp)

    sp = sub.add_parser("oberhettinger", help="closed base integral")
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    _add_common(sp)

    sp = sub.add_parser("quad", help="Gauss-Jacobi quadrature of one integral")
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--y", type=float, default=0.0)
    sp.add_argument("--arg-form", dest="arg_form", default="fixed",
                    choices=("fixed", "linear"))
    sp.add_argument("--kernel", default="one", choices=sorted(_KERNEL_NAMES))
    sp.add_argument("--alpha", type=float, default=None,
                    help="order for the s_alpha kernel")
    _add_common(sp)

    sp = sub.add_parser("audit", help="audit one identity at one point")
    sp.add_argument("--id", required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--gamma", type=float, default=1.0)
    sp.add_argument("--alpha", type=float, default=None)
    _add_common(sp)

    sp = sub.add_parser("sweep", help="audit one identity over a grid")
    sp.add_argument("--id", required=True)
    sp.add_argument("--grid", default="default",
                    help="'default' or a JSON file with axis arrays "
                         "(alpha, mu, dlam, a, gy)")
    _add_common(sp)
    return parser


def _params_from_args(command: str, args: argparse.Namespace) -> dict:
    if command == "eval-kernel":
        return {"alpha": args.alpha, "z": args.z}
    if command == "eval-wright":
        return {"upper": [_parse_pair(s) for s in args.upper],
                "lower": [_parse_pair(s) for s in args.lower],
                "z": args.z}
    if command == "eval-pfq":
        return {"upper": args.upper, "lower": args.lower, "z": args.z}
    if command == "oberhettinger":
        return {"mu": args.mu, "lambda": args.lam, "a": args.a}
    if command == "quad":
        return {"mu": args.mu, "lambda": args.lam, "a": args.a,
                "gamma": args.gamma, "y": args.y, "arg_form": args.arg_form,
                "kernel": args.kernel, "alpha": args.alpha}
    if command == "audit":
        return {"id": args.id, "mu": args.mu, "lambda": args.lam, "a": args.a,
                "y": args.y, "gamma": args.gamma, "alpha": args.alpha}
    return {"id": args.id, "grid": args.grid}


def _load_config(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON in config {path!r}: {exc}") from exc
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    if "command" not in data:
        raise DomainError("config must name a command")
    return (data["command"], dict(data.get("params", {})),
            float(data.get("tol", 1e-10)), data.get("output_format", "text"),
            data.get("output_path"))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            command, params, tol, output_format, output_path = _load_config(args.config)
        elif args.command is not None:
            command = args.command
            params = _params_from_args(command, args)
            tol = args.tol
            output_format = args.output_format
            output_path = args.output_path
        else:
            parser.print_usage(sys.stderr)
            sys.stderr.write("error: a subcommand or --config is required\n")
            return 2
        tol = _check_tol(tol)
        if output_format not in ("text", "json", "csv"):
            raise DomainError(f"unknown output format {output_format!r}")
        payload, records, converged = _run_command(command, params, tol)
        _emit(payload, records, output_format, output_path)
        return 0 if converged else 3
    except NonConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (DomainError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # contract: no undeclared exit statuses
        sys.stderr.write(f"internal error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
