"""Command-line front end.

    evoq solve    --config FILE --out DIR [--json]
    evoq adjoint  --config FILE --out DIR [--json]
    evoq verify   --config FILE --suite NAME [--out DIR] [--json]
    evoq control  --config FILE [--variant V] [--certify-duality] --out DIR [--json]
    evoq suite    acceptance [--out DIR] [--json] [--fast]

Exit codes: 0 all enabled assertions pass, 1 numerical assertion failure,
2 configuration rejected, 3 I/O failure.  Reports are deterministic for a
fixed config (fixed seed, index-ordered reductions), so reruns produce
bitwise-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

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


def _certificate_dict(cert) -> dict:
    return {
        "nu": cert.nu,
        "c_est": cert.c_est,
        "sample_count": cert.sample_count,
        "min_location": cert.min_location,
    }


def _report_dict(report) -> dict:
    out = {
        "residual_rel": report.residual_rel,
        "norm_ratio": report.norm_ratio,
        "wraparound_tolerance": report.wraparound_tolerance,
        "certificate": _certificate_dict(report.certificate),
    }
    if report.causality_leakage is not None:
        out["causality_leakage"] = report.causality_leakage
    if report.amnesia_leakage is not None:
        out["amnesia_leakage"] = report.amnesia_leakage
    return out


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


def _verify_duality(cfg, rng):
    # Acceptance criterion 3 checks the same pairing on batched solves.
    # Batching these 32 pairs raised peak RSS from 110.6 to 134.7 MB (116.9 MB
    # in 4-column blocks) and CPU/wall from 1.15 to 1.65-1.97, as the padded
    # batch crosses OpenBLAS's 10 000-entry threading cut in unread residual
    # norms; solving criterion 3 pair by pair would change all 300 of its gaps.
    from .signals import nu_product
    from .solver import SpectralOperator
    from .waveforms import random_signal

    op = SpectralOperator(cfg.law, cfg.A, cfg.nu, cfg.grid, cfg.pad_fraction)
    worst = 0.0
    for _ in range(32):
        f = random_signal(cfg.grid, cfg.nu, cfg.m, rng)
        g = random_signal(cfg.grid, -cfg.nu, cfg.m, rng)
        uf, vg = op.solve(f), op.solve(g)
        gap = abs(nu_product(uf.solution, g) - nu_product(f, vg.solution))
        worst = max(worst, gap / (f.norm * g.norm))
    tol = cfg.tolerances["pairing"]
    return {"suite": "duality", "pairs": 32, "max_relative_gap": worst,
            "tolerance": tol, "passed": worst <= tol}


def _verify_causality(cfg, rng):
    from .solver import SpectralOperator, causality_check

    op = SpectralOperator(cfg.law, cfg.A, cfg.nu, cfg.grid, cfg.pad_fraction)
    return {"suite": "causality",
            **causality_check(op, cfg.build_rhs(), cfg.build_rhs(weight=-cfg.nu),
                              cfg.tolerances["cross_method"])}


def _verify_reversal(cfg, rng):
    from .solver import time_reversal_conjugation_check
    from .waveforms import band_limited_signal

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


def _control_problem(cfg, variant):
    from .control import ControlProblem
    from .errors import SchemaError
    from .solver import EvoProblem

    if cfg.control is None:
        raise SchemaError("config has no control section")
    spec = cfg.control
    variant = variant or spec.variant
    rhs = spec.forcing.signal(cfg.grid, cfg.m, cfg.nu)
    base = EvoProblem(cfg.nu, cfg.grid, cfg.law, cfg.A, rhs, "forward")
    return ControlProblem(base=base, B=spec.B, T=spec.T, variant=variant,
                          U0=spec.U0 if variant == "pointwise" else None)


def _control_result_dict(res) -> dict:
    return {
        "feasible": res.feasible,
        "terminal_residual": res.terminal_residual,
        "control_norm": res.control_norm,
        "regularization": {
            "rank": res.regularization.rank,
            "cutoff": res.regularization.cutoff,
            "sigma_max": res.regularization.sigma_max,
        },
    }


def _cmd_control(cfg, args) -> int:
    import numpy as np

    from .control import (_duality_verdicts, assemble_endmaps, null_control,
                          observability_constant, pointwise_duality_check,
                          pointwise_null_control)
    from .material import coercivity
    from .signals import save_signal

    cp = _control_problem(cfg, args.variant)
    pointwise = cp.variant == "pointwise"
    rtol = cfg.tolerances["svd_cutoff"]
    feasibility_tol = cfg.tolerances["pointwise_feasibility" if pointwise else "feasibility"]

    if args.certify_duality:
        if pointwise:
            chk = pointwise_duality_check(cp, rtol=rtol, feasibility_tol=feasibility_tol)
            verdicts = {"feasible_for_basis": chk["feasible_for_basis"],
                        "range_included": chk["range_included"]}
        else:
            maps = assemble_endmaps(cp, cfg.pad_fraction)
            feasible, douglas, obs = _duality_verdicts(
                cp, maps, np.random.default_rng(cfg.seed), rtol, feasibility_tol)
            verdicts = {"feasible_for_spanning_set": feasible,
                        "range_included": douglas.included,
                        "observability_finite": math.isfinite(obs.c_obs)}
        agree = len(set(verdicts.values())) == 1
        payload = {"command": "control --certify-duality", "variant": cp.variant,
                   "verdicts": verdicts, "agree": agree}
        _write_json(payload, args.out, "duality_table.json", args.json)
        return EXIT_OK if agree else EXIT_NUMERICAL

    if pointwise:
        # the stepper runs on the unpadded grid
        cert = coercivity(cfg.law, cfg.nu, cfg.grid)
        res = pointwise_null_control(cp, rtol=rtol, feasibility_tol=feasibility_tol)
    else:
        maps = assemble_endmaps(cp, cfg.pad_fraction)
        cert = maps.certificate
        res = null_control(cp, maps, rtol=rtol, feasibility_tol=feasibility_tol)
        obs = observability_constant(cp, maps, rtol=rtol)
    payload = {"command": "control", "variant": cp.variant, "seed": cfg.seed,
               "certificate": _certificate_dict(cert),
               "result": _control_result_dict(res)}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_signal(res.G, os.path.join(args.out, "control_G"))
        if not pointwise:
            save_signal(obs.witness, os.path.join(args.out, "observability_witness"))
    _write_json(payload, args.out, "control_result.json", args.json)
    if not pointwise:
        obs_payload = {"c_obs": obs.c_obs, "method": obs.method, "cutoff": obs.cutoff}
        _write_json(obs_payload, args.out, "observability.json", args.json)
    return EXIT_OK


def _cmd_suite(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(fast=args.fast)
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
    p_control.add_argument("--variant", choices=["supported", "pointwise"])
    p_control.add_argument("--certify-duality", action="store_true")
    p_suite = sub.add_parser("suite", help="run a bundled suite")
    p_suite.add_argument("name", choices=["acceptance"])
    p_suite.add_argument("--fast", action="store_true",
                         help="reduced sample counts (smoke run)")
    common(p_suite, needs_config=False)
    return parser


def run(config_path: str, command: str, out_dir: str = "") -> int:
    """Programmatic one-call interface mirroring the CLI."""
    argv = [command, "--config", config_path]
    if out_dir:
        argv += ["--out", out_dir]
    return main(argv)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "suite":
        try:
            return _cmd_suite(args)
        except OSError as exc:
            print(f"evoq: I/O failure: {exc}", file=sys.stderr)
            return EXIT_IO

    from numpy.linalg import LinAlgError

    from .config import load_config
    from .errors import (DefinitenessError, EvoqError, NonCoerciveError, NotSkewError,
                         PreconditionError, SchemaError, SizeGuardError,
                         UnsupportedLawError)

    try:
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
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"evoq: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (EvoqError, LinAlgError) as exc:
        kind = type(exc).__name__
        if isinstance(exc, (NonCoerciveError, DefinitenessError, NotSkewError,
                            PreconditionError, UnsupportedLawError, SizeGuardError)):
            print(f"evoq: config rejected ({kind}): {exc}", file=sys.stderr)
            return EXIT_SCHEMA
        print(f"evoq: numerical failure ({kind}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
