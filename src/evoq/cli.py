"""Command-line front end.

    evoq solve    --config FILE --out DIR [--json]
    evoq adjoint  --config FILE --out DIR [--json]
    evoq verify   --config FILE --suite NAME [--out DIR] [--json]
    evoq control  --config FILE [--certify-duality] --out DIR [--json]
    evoq suite    acceptance [--out DIR] [--json]

Exit codes: 0 all enabled assertions pass, 1 numerical assertion failure,
2 configuration rejected, 3 I/O failure.  Reports are deterministic for a
fixed config (fixed seed, index-ordered reductions), so reruns produce
bitwise-identical JSON.  Every command runs on one OpenBLAS thread and hands
the caller's count back, so no report depends on OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_SCHEMA = 2
EXIT_IO = 3


def _json_safe(obj):
    """Plain JSON values: numpy scalars become Python ones, and non-finite
    numbers the strings "infinity", "-infinity" and "nan"."""
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    obj = obj.item() if hasattr(obj, "item") else obj
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "infinity" if obj > 0 else "-infinity"
    return obj


def _write_json(payload: dict, out_dir: str, name: str, echo: bool) -> None:
    text = json.dumps(_json_safe(payload), sort_keys=True, indent=2, allow_nan=False)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    if echo:
        print(text)


def _report_dict(report) -> dict:
    leakage = "causality_leakage" if report.solution.nu > 0 else "amnesia_leakage"
    return {
        "residual_rel": report.residual_rel,
        "norm_ratio": report.norm_ratio,
        "wraparound_tolerance": report.wraparound_tolerance,
        "certificate": asdict(report.certificate),
        leakage: report.leakage,
    }


def _cmd_solve(cfg, args, direction: str) -> int:
    from .signals import save_signal
    from .solver import EvoProblem, solve_adjoint, solve_forward

    weight = cfg.nu if direction == "forward" else -cfg.nu
    rhs = cfg.build_rhs(weight=weight)
    prob = EvoProblem(cfg.nu, cfg.grid, cfg.law, cfg.A, rhs, direction)
    report = (solve_forward if direction == "forward" else solve_adjoint)(
        prob, cfg.pad_fraction)
    payload = {
        "command": "solve" if direction == "forward" else "adjoint",
        "config": os.path.basename(cfg.source_path or ""),
        "seed": cfg.seed,
        "report": _report_dict(report),
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_signal(report.solution, os.path.join(args.out, "solution"))
        save_signal(rhs, os.path.join(args.out, "rhs"))
    _write_json(payload, args.out, "report.json", args.json)
    ok = report.residual_rel <= cfg.tolerances["algebraic"]
    return EXIT_OK if ok else EXIT_NUMERICAL


_DUALITY_PAIRS = 32


def _verify_duality(cfg, rng):
    # Pairs are drawn f1, g1, f2, g2, ...; one forward and one adjoint solve
    # serve each batch of them.
    from .solver import SpectralOperator, _pairing_gap
    from .waveforms import random_signal

    op = SpectralOperator(cfg.law, cfg.A, cfg.nu, cfg.grid, cfg.pad_fraction)
    pairs = ((random_signal(cfg.grid, cfg.nu, cfg.m, rng),
              random_signal(cfg.grid, -cfg.nu, cfg.m, rng)) for _ in range(_DUALITY_PAIRS))
    worst = _pairing_gap(pairs, op.solutions)
    tol = cfg.tolerances["pairing"]
    return {"suite": "duality", "pairs": _DUALITY_PAIRS, "max_relative_gap": worst,
            "tolerance": tol, "passed": worst <= tol}


def _verify_causality(cfg, rng):
    from .solver import SpectralOperator, causality_check

    op = SpectralOperator(cfg.law, cfg.A, cfg.nu, cfg.grid, cfg.pad_fraction)
    return {"suite": "causality",
            **causality_check(op, cfg.build_rhs(), cfg.build_rhs(weight=-cfg.nu))}


def _verify_reversal(cfg, rng):
    from .errors import SchemaError
    from .solver import time_reversal_conjugation_check
    from .waveforms import band_limited_signal

    grid = cfg.grid
    if not grid.symmetric:
        raise SchemaError(f"grid.t_min, grid.t_max: the reversal suite needs a grid "
                          f"symmetric about 0, got [{grid.t_min!r}, {grid.t_max!r})")
    signals = [band_limited_signal(cfg.grid, -cfg.nu, cfg.m, rng) for _ in range(5)]
    worst = time_reversal_conjugation_check(cfg.law, cfg.A, signals)
    tol = cfg.tolerances["conjugation"]
    return {"suite": "reversal", "signals": len(signals),
            "max_discrepancy": worst, "tolerance": tol, "passed": worst <= tol}


def _verify_nu_independence(cfg, rng):
    import numpy as np

    from .errors import SchemaError
    from .signals import TimeGrid, _weight_exponents
    from .solver import nu_independence_check
    from .waveforms import smooth_bump

    # the probe is the forcing's bump profile at unit amplitude, whatever
    # its shape, so that one function of time serves both weights
    rhs = cfg.rhs

    def fn(t):
        values = np.zeros((len(t), cfg.m))
        values[:, rhs.component] = smooth_bump(t, rhs.center, rhs.width)
        return values

    # The probe needs the larger-weight flat bump e^{-2t} f(t) resolved, so
    # the suite refines coarse solve grids instead of comparing alias noise.
    grid = cfg.grid
    if grid.n < 512:
        grid = TimeGrid(grid.t_min, grid.t_max, 512)
    try:
        _weight_exponents(2.0, grid)
    except OverflowError as exc:
        raise SchemaError(f"grid.t_min, grid.t_max: the nu-independence suite "
                          f"solves at weight 2: {exc}") from None

    diffs = nu_independence_check(cfg.law, cfg.A, fn, grid, 1.0, 2.0,
                                  pad_fraction=cfg.pad_fraction)
    out = {"suite": "nu-independence", "nu1": 1.0, "nu2": 2.0, "samples": grid.n}
    ok = True
    for direction, diff in diffs.items():
        out[f"{direction}_sup_rel_diff"] = diff
        ok = ok and diff < cfg.tolerances["cross_nu"]
    out["passed"] = bool(ok)
    return out


_VERIFY_SUITES = {
    "duality": _verify_duality,
    "causality": _verify_causality,
    "reversal": _verify_reversal,
    "nu-independence": _verify_nu_independence,
}


def _cmd_verify(cfg, args) -> int:
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    result = _VERIFY_SUITES[args.suite](cfg, rng)
    result["seed"] = cfg.seed
    _write_json(result, args.out, f"verify_{args.suite}.json", args.json)
    return EXIT_OK if result["passed"] else EXIT_NUMERICAL


def _control_result_dict(res) -> dict:
    return {
        "feasible": res.feasible,
        "terminal_residual": res.terminal_residual,
        "control_norm": res.control_norm,
        "regularization": asdict(res.regularization),
    }


def _cmd_control(cfg, args) -> int:
    import numpy as np

    from .control import _certify, _synthesize
    from .errors import SchemaError
    from .signals import save_signal

    cp = cfg.control
    if cp is None:
        raise SchemaError("config has no control section")

    if args.certify_duality:
        verdicts = _certify(cp, cfg.pad_fraction, np.random.default_rng(cfg.seed))
        agree = len(set(verdicts.values())) == 1
        payload = {"command": "control --certify-duality", "variant": cp.variant,
                   "verdicts": verdicts, "agree": agree}
        _write_json(payload, args.out, "duality_table.json", args.json)
        return EXIT_OK if agree else EXIT_NUMERICAL

    # obs is None for the pointwise variant, and its cutoff None on the B route
    cert, res, obs = _synthesize(cp, cfg.pad_fraction)
    payload = {"command": "control", "variant": cp.variant, "seed": cfg.seed,
               "certificate": asdict(cert),
               "result": _control_result_dict(res)}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_signal(res.G, os.path.join(args.out, "control_G"))
        if obs is not None:
            save_signal(obs.witness, os.path.join(args.out, "observability_witness"))
    _write_json(payload, args.out, "control_result.json", args.json)
    if obs is not None:
        obs_payload = {"c_obs": obs.c_obs, "method": obs.method}
        if obs.cutoff is not None:
            obs_payload["cutoff"] = obs.cutoff
        _write_json(obs_payload, args.out, "observability.json", args.json)
    return EXIT_OK


def _cmd_suite(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance()
    rows = []
    for res in results:
        rows.append({"criterion": res.cid, "name": res.name,
                     "passed": res.passed, "measured": res.measured})
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.cid}: {res.name}")
    payload = {"suite": "acceptance", "results": rows,
               "all_passed": all(r.passed for r in results)}
    _write_json(payload, args.out, "acceptance.json", args.json)
    return EXIT_OK if payload["all_passed"] else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evoq",
        description="Solvers and null-controllability tools for evolution "
                    "systems in exponentially weighted L2 spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="instance config (JSON)")
        p.add_argument("--out", default="", help="output directory")
        p.add_argument("--json", action="store_true", help="echo reports to stdout")

    common(sub.add_parser("solve", help="solve the forward system"))
    common(sub.add_parser("adjoint", help="solve the backward system"))
    p_verify = sub.add_parser("verify", help="run a verification suite")
    common(p_verify)
    p_verify.add_argument("--suite", required=True, choices=sorted(_VERIFY_SUITES))
    p_control = sub.add_parser("control", help="null-control synthesis")
    common(p_control)
    p_control.add_argument("--certify-duality", action="store_true")
    p_suite = sub.add_parser("suite", help="run a bundled suite")
    p_suite.add_argument("name", choices=["acceptance"])
    common(p_suite, needs_config=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from ._blas import one_blas_thread

    return one_blas_thread(_run)(args)


def _run(args) -> int:
    from numpy.linalg import LinAlgError

    from .config import load_config
    from .errors import EvoqError, SchemaError

    try:
        if args.command == "suite":
            return _cmd_suite(args)
        cfg = load_config(args.config)
        if args.command == "solve":
            return _cmd_solve(cfg, args, "forward")
        if args.command == "adjoint":
            return _cmd_solve(cfg, args, "adjoint")
        if args.command == "verify":
            return _cmd_verify(cfg, args)
        if args.command == "control":
            return _cmd_control(cfg, args)
        raise AssertionError(f"unhandled command {args.command}")
    except SchemaError as exc:
        print(f"evoq: config rejected: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"evoq: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # the config asks for more memory than the machine has
        detail = f": {exc}" if str(exc) else ""
        print(f"evoq: config rejected (MemoryError): out of memory{detail}", file=sys.stderr)
        return EXIT_SCHEMA
    except (EvoqError, LinAlgError, OverflowError) as exc:
        code = getattr(exc, "exit_code", EXIT_NUMERICAL)
        verdict = "config rejected" if code == EXIT_SCHEMA else "numerical failure"
        print(f"evoq: {verdict} ({type(exc).__name__}): {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
