"""Output checks: every command has a known correct outcome.

A check returns None when the command's output is right and a one-line
reason otherwise.  The checks read what the command printed or wrote; the
pointwise and solve checks also recompute the signal through the library
(runs are bitwise deterministic) so that its CSV reload can be compared bit
for bit.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def json_documents(text: str) -> list:
    """Parse the JSON reports a command echoed with --json, in order."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_verify(expect, docs, _ctx):
    if len(docs) != 1:
        return f"expected one report, got {len(docs)}"
    rep = docs[0]
    if rep.get("suite") != expect["suite"]:
        return f"report is for suite {rep.get('suite')!r}"
    if rep.get("passed") is not True:
        return f"suite {expect['suite']} did not pass: {rep}"
    return None


def _reload(ctx, name, expected):
    """Reload <out>/<name> through load_signal; it must equal `expected` bit for bit."""
    sig = ctx["evoq"].signals.load_signal(os.path.join(ctx["out"], name))
    if sig.grid != expected.grid or sig.nu != expected.nu:
        return f"{name}: header (grid, nu) does not match the config"
    if not _same_bits(sig.phi, expected.phi):
        return f"{name}: CSV reload differs from the computed signal"
    return None


def _check_pointwise(_expect, _docs, ctx):
    with open(os.path.join(ctx["out"], "control_result.json")) as fh:
        rep = json.load(fh)
    res = rep["result"]
    if rep.get("variant") != "pointwise" or res["feasible"] is not True:
        return f"pointwise control with B = 1 must be feasible: {res}"
    evoq = ctx["evoq"]
    cfg = evoq.config.load_config(ctx["config"])
    base = evoq.solver.EvoProblem(cfg.nu, cfg.grid, cfg.law, cfg.A, cfg.build_rhs(), "forward")
    cp = evoq.control.ControlProblem(base=base, B=cfg.control.B, T=cfg.control.T,
                                     variant="pointwise", U0=cfg.control.U0)
    G = evoq.control.pointwise_null_control(
        cp, rtol=cfg.tolerances["svd_cutoff"],
        feasibility_tol=cfg.tolerances["pointwise_feasibility"]).G
    return _reload(ctx, "control_G", G)


def _check_solve(_expect, docs, ctx):
    if len(docs) != 1:
        return f"expected one solve report, got {len(docs)}"
    rep = docs[0]["report"]
    if not rep["residual_rel"] <= 1e-12:
        return f"residual_rel {rep['residual_rel']} above 1e-12"
    if not rep["causality_leakage"] <= rep["wraparound_tolerance"] + 1e-12:
        return (f"causality leakage {rep['causality_leakage']} above the "
                f"wrap-around {rep['wraparound_tolerance']}")
    evoq = ctx["evoq"]
    cfg = evoq.config.load_config(ctx["config"])
    rhs = cfg.build_rhs(weight=cfg.nu)
    base = evoq.solver.EvoProblem(cfg.nu, cfg.grid, cfg.law, cfg.A, rhs, "forward")
    solution = evoq.solver.solve_forward(base, cfg.pad_fraction).solution
    return _reload(ctx, "solution", solution) or _reload(ctx, "rhs", rhs)


def _check_signal_header(ctx, name, grid, nu, columns):
    """<out>/<name> must reload through load_signal on the config's grid."""
    sig = ctx["evoq"].signals.load_signal(os.path.join(ctx["out"], name))
    got = (sig.grid.t_min, sig.grid.t_max, sig.grid.n, sig.nu, sig.m)
    want = (grid["t_min"], grid["t_max"], grid["n"], nu, columns)
    return None if got == want else f"{name}: (grid, nu, m) {got} != {want}"


def _check_control(expect, docs, ctx):
    if len(docs) != 2:
        return f"expected control and observability reports, got {len(docs)}"
    with open(ctx["config"]) as fh:
        cfg = json.load(fh)
    grid, nu, B = cfg["grid"], cfg["nu"], cfg["control"]["B"]
    bad = (_check_signal_header(ctx, "control_G", grid, nu, len(B[0]))
           or _check_signal_header(ctx, "observability_witness", grid, -nu, len(B)))
    if bad:
        return bad
    feasible = docs[0]["result"]["feasible"]
    c_obs = docs[1]["c_obs"]
    finite = c_obs != "infinity" and math.isfinite(c_obs)
    if expect["B"] == "I" and not (feasible and finite):
        return f"B = I must be controllable: feasible={feasible}, c_obs={c_obs}"
    if expect["B"] == "zero" and (feasible or finite):
        return f"B = 0 must be uncontrollable: feasible={feasible}, c_obs={c_obs}"
    if finite and not feasible:
        # A finite observability constant means ran(L_F) lies in ran(L_G),
        # so every forcing, this one included, can be null-controlled.
        return f"finite c_obs={c_obs} but this forcing was reported infeasible"
    return None


def _check_certify(expect, docs, _ctx):
    if len(docs) != 1:
        return f"expected one duality table, got {len(docs)}"
    table = docs[0]
    verdicts = list(table["verdicts"].values())
    if table.get("agree") is not True:
        return f"the three verdicts disagree: {table['verdicts']}"
    if expect["B"] == "I" and not all(verdicts):
        return f"B = I must give all verdicts true: {table['verdicts']}"
    if expect["B"] == "zero" and any(verdicts):
        return f"B = 0 must give all verdicts false: {table['verdicts']}"
    return None


_CHECKS = {
    "verify": _check_verify,
    "pointwise": _check_pointwise,
    "solve": _check_solve,
    "control": _check_control,
    "certify": _check_certify,
}


def check(expect: dict, code, stdout: str, ctx: dict):
    """Reason the command failed, or None.  `ctx` holds the evoq package,
    the config path and the command's output directory."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[expect["kind"]](expect, json_documents(stdout), ctx)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"output unreadable: {type(exc).__name__}: {exc}"
