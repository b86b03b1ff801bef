"""Configuration parsing and the command-line front end."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import evoq
from evoq.cli import main
from evoq.config import DEFAULT_TOLERANCES, load_config
from evoq.errors import SchemaError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def main_recording_warnings(argv):
    """(exit code, every warning raised) of one `main` call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, caught


def bundled(name, n):
    """A bundled config at n samples."""
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
        payload = json.load(fh)
    payload["grid"]["n"] = n
    return payload


def base_config():
    return {
        "seed": 7,
        "nu": 1.0,
        "grid": {"t_min": -4.0, "t_max": 4.0, "n": 128, "padding_fraction": 0.25},
        "spatial": {"kind": "heat", "k": 2, "a": 2.0},
        "rhs": {"shape": "bump", "component": 0, "center": 0.0, "width": 1.0},
    }


class TestLoadConfig:
    def test_bundled_configs_parse(self):
        for name in ("heat_small", "wave_small", "maxwell_small", "pointwise_decay"):
            cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.json"))
            assert cfg.nu > 0
            assert cfg.m >= 1

    def test_builder_kind_produces_law(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg.m == 5
        assert cfg.law.order == 1
        assert cfg.tolerances == DEFAULT_TOLERANCES

    def test_matrix_kind_needs_law(self, tmp_path):
        payload = base_config()
        payload["spatial"] = {"kind": "matrix", "matrix": [[[0.0, 0.0]]]}
        with pytest.raises(SchemaError, match="law"):
            load_config(write_config(tmp_path, payload))

    def test_law_forbidden_with_builder(self, tmp_path):
        payload = base_config()
        payload["law"] = {"coeffs": [[[[1.0, 0.0]]]]}
        with pytest.raises(SchemaError, match="builder"):
            load_config(write_config(tmp_path, payload))

    def test_missing_field_reports_path(self, tmp_path):
        payload = base_config()
        del payload["grid"]
        with pytest.raises(SchemaError, match="grid"):
            load_config(write_config(tmp_path, payload))

    def test_ragged_matrix_rejected(self, tmp_path):
        payload = base_config()
        payload["spatial"] = {"kind": "matrix",
                              "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]]}
        with pytest.raises(SchemaError, match="ragged"):
            load_config(write_config(tmp_path, payload))

    def test_unknown_tolerance_rejected(self, tmp_path):
        payload = base_config()
        payload["tolerances"] = {"made_up": 1.0}
        with pytest.raises(SchemaError, match="made_up"):
            load_config(write_config(tmp_path, payload))

    def test_component_out_of_range(self, tmp_path):
        payload = base_config()
        payload["rhs"]["component"] = 99
        with pytest.raises(SchemaError, match="component"):
            load_config(write_config(tmp_path, payload))

    def test_custom_rhs_must_exist(self, tmp_path):
        payload = base_config()
        payload["rhs"] = {"shape": "custom", "csv": "missing_signal"}
        with pytest.raises(SchemaError, match="does not exist"):
            load_config(write_config(tmp_path, payload))

    def test_custom_rhs_roundtrip(self, tmp_path):
        payload = base_config()
        cfg0 = load_config(write_config(tmp_path, payload))
        sig = cfg0.build_rhs()
        evoq.save_signal(sig, str(tmp_path / "forcing"))
        payload["rhs"] = {"shape": "custom", "csv": "forcing"}
        cfg = load_config(write_config(tmp_path, payload, name="cfg2.json"))
        loaded = cfg.build_rhs()
        assert np.array_equal(loaded.phi, sig.phi)

    def test_control_section(self, tmp_path):
        payload = base_config()
        payload["control"] = {
            "B": [[[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]],
            "T": 1.0,
            "variant": "supported",
        }
        cfg = load_config(write_config(tmp_path, payload))
        assert cfg.control.B.shape == (5, 1)

    def test_pointwise_control_needs_u0(self, tmp_path):
        payload = base_config()
        payload["control"] = {
            "B": [[[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]],
            "T": 1.0,
            "variant": "pointwise",
        }
        with pytest.raises(SchemaError, match="U0"):
            load_config(write_config(tmp_path, payload))


class TestCliExitCodes:
    def test_solve_writes_reports(self, tmp_path):
        out = tmp_path / "out"
        code = main(["solve", "--config",
                     os.path.join(CONFIG_DIR, "heat_small.json"),
                     "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "solution.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["report"]["residual_rel"] < 1e-10
        assert report["report"]["certificate"]["c_est"] > 0

    def test_adjoint_runs(self, tmp_path):
        code = main(["adjoint", "--config",
                     os.path.join(CONFIG_DIR, "heat_small.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 0

    @pytest.mark.parametrize("suite", ["duality", "causality", "reversal",
                                       "nu-independence"])
    def test_verify_suites_pass(self, tmp_path, suite):
        code = main(["verify", "--config",
                     os.path.join(CONFIG_DIR, "heat_small.json"),
                     "--suite", suite, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / f"verify_{suite}.json").read_text())
        assert payload["passed"] is True

    def test_schema_violation_exits_2(self, tmp_path):
        payload = base_config()
        del payload["nu"]
        code = main(["solve", "--config", write_config(tmp_path, payload)])
        assert code == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("field", ["nu", "grid.t_max", "spatial.a"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, field, value):
        with open(os.path.join(CONFIG_DIR, "heat_small.json")) as fh:
            payload = json.load(fh)
        section, _, key = field.rpartition(".")
        (payload[section] if section else payload)[key] = value
        code = main(["solve", "--config", write_config(tmp_path, payload)])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, command", [
        ("grid.n", 1, "solve"),
        ("grid.t_min", 8.0, "solve"),
        ("spatial.k", 0, "solve"),
        ("spatial.k", -1, "solve"),
        ("spatial.k", 1000000, "solve"),
        ("spatial.dx", 0.0, "solve"),
        ("spatial.dx", -1.0, "solve"),
        ("seed", -1, "verify"),
        ("nu", 800, "solve"),
        ("nu", 1e308, "solve"),
        ("grid.t_max", 1e308, "solve"),
        ("grid.padding_fraction", 1e9, "solve"),
        ("rhs.center", "x", "solve"),
        ("rhs.width", "x", "solve"),
        ("rhs.amplitude", "x", "solve"),
        ("rhs.lo", "x", "solve"),
        ("rhs.hi", "x", "solve"),
        ("rhs.width", 0, "solve"),
        ("rhs.component", True, "solve"),
        ("control.F.component", 99, "control"),
        ("grid.t_min", -400.0, "verify --suite nu-independence"),
        ("tolerances.svd_cutoff", 0, "control"),
        ("tolerances.svd_cutoff", -1, "control"),
        ("tolerances.pairing", -1.0, "verify"),
        ("rhs.amplitude", 1e308, "solve"),
        ("spatial.a", 1e308, "solve"),
        ("spatial.a", 1e-320, "solve"),
        ("law", {"coeffs": [[[[1e308, 0.0]]]]}, "solve"),
        ("spatial.T_elast", 1e-308, "solve"),
        ("spatial.sigma", 1e308, "solve"),
        ("spatial.sigma", -1.0, "solve"),
        ("spatial.matrix", [[[-1.0, 0.0]]], "solve"),
        ("grid", None, "solve"),
        ("grid", 5, "solve"),
        ("spatial", None, "solve"),
        ("law", 5, "solve"),
        ("law.coeffs", [], "solve"),
        ("law.coeffs", 5, "solve"),
        ("control", None, "control"),
        ("control", None, "control --certify-duality"),
        ("control.T", 8.0, "control"),  # past the last sample, 7.9375
        ("control.T", 8.0, "control --certify-duality"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, field, value, command):
        with open(os.path.join(CONFIG_DIR, "heat_small.json")) as fh:
            payload = json.load(fh)
        if field.split(".")[0] == "law" or field == "spatial.matrix":
            # builder kinds refuse a law section: such a row runs on a 1 x 1
            # matrix kind, which needs no control section
            payload["spatial"] = {"kind": "matrix", "matrix": [[[0.0, 0.0]]]}
            payload["law"] = {"coeffs": [[[[1.0, 0.0]]]]}
            del payload["control"]
        if field in ("spatial.T_elast", "spatial.sigma"):
            # a coefficient of another builder kind; k = 4 keeps m = 9
            kind = "wave" if field == "spatial.T_elast" else "maxwell"
            payload["spatial"] = {"kind": kind, "k": 4}
        *sections, key = field.split(".")
        target = payload
        for name in sections:
            target = target.setdefault(name, {})
        target[key] = value
        name, *options = command.split()
        argv = [name, "--config", write_config(tmp_path, payload), *options]
        if command == "verify":
            argv += ["--suite", "duality"]
        code, caught = main_recording_warnings(argv)
        assert code == 2
        assert field in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("edit, field", [
        ({"U0": 5}, "control.U0"),
        ({"T": 5.99}, "control.T"),  # past the last sample, 5.875
    ], ids=["U0-number", "T-past-last-sample"])
    @pytest.mark.parametrize("command", ["control", "control --certify-duality"])
    def test_malformed_pointwise_control_exits_2(self, tmp_path, capsys, edit, field,
                                                 command):
        # both commands refuse the same horizons, at load time
        payload = bundled("pointwise_decay", 64)
        payload["control"].update(edit)
        name, *options = command.split()
        code = main([name, "--config", write_config(tmp_path, payload), *options])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"evoq: config rejected: {field}:") and err.count("\n") == 1

    def test_last_sample_is_a_valid_horizon(self, tmp_path):
        payload = bundled("pointwise_decay", 64)
        payload["control"]["T"] = 5.875
        assert main(["control", "--config", write_config(tmp_path, payload)]) == 0

    def test_unconverged_svd_exits_1(self, tmp_path, capsys):
        # a tiny B entry leaves an SVD that does not converge: a numerical
        # failure told in one line (the dense algebra still warns on the way)
        payload = bundled("heat_small", 32)
        payload["control"]["B"][0][0] = [1e-308, 0.0]
        code, _ = main_recording_warnings(
            ["control", "--config", write_config(tmp_path, payload), "--certify-duality"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("evoq: numerical failure (LinAlgError):") and err.count("\n") == 1

    @pytest.mark.parametrize("base, code", [
        ("NonCoerciveError", 2), ("DefinitenessError", 2), ("NotSkewError", 2),
        ("PreconditionError", 2), ("UnsupportedLawError", 2), ("SizeGuardError", 2),
        ("ConsistencyError", 1), ("SolverError", 1), ("NonFiniteSignalError", 1),
    ])
    def test_errors_are_classified_by_class(self, tmp_path, capsys, monkeypatch, base, code):
        # a subclass exits as its base class does, under its own name
        from evoq import cli, errors

        error = type(f"Special{base}", (getattr(errors, base),), {})

        def fail(*args):
            raise error("probe")

        monkeypatch.setattr(cli, "_cmd_solve", fail)
        assert main(["solve", "--config", write_config(tmp_path, base_config())]) == code
        verdict = "config rejected" if code == 2 else "numerical failure"
        assert capsys.readouterr().err == f"evoq: {verdict} (Special{base}): probe\n"

    @pytest.mark.parametrize("command", [
        "solve", "adjoint", "verify --suite duality", "verify --suite causality",
        "verify --suite reversal", "verify --suite nu-independence", "control",
    ])
    def test_overflowing_solution_exits_1(self, tmp_path, capsys, command):
        # a finite dx whose solution overflows is a numerical failure, told
        # in one line; the reversal suite overflows in an apply, not a solve
        with open(os.path.join(CONFIG_DIR, "heat_small.json")) as fh:
            payload = json.load(fh)
        payload["grid"]["n"] = 64
        payload["spatial"]["dx"] = 1e-308
        name, *options = command.split()
        code, caught = main_recording_warnings(
            [name, "--config", write_config(tmp_path, payload), *options])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("evoq: numerical failure") and err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("spatial, budget, field", [
        ({"spatial": {"kind": "matrix", "matrix": [[[0.0, 0.0]]]},
          "law": {"coeffs": [[[[1.0, 0.0]]]]}},
         192 * 16 - 1, "grid.n"),                  # n = 128 pads to 192; m = 1
        ({}, 192 * 25 * 16 - 1, "spatial.k"),      # heat k = 2: m = 5
        ({"spatial": {"kind": "matrix", "matrix": [[[0.0, 0.0]] * 2] * 2},
          "law": {"coeffs": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}},
         192 * 4 * 16 - 1, "spatial.matrix"),
    ], ids=["grid.n", "spatial.k", "spatial.matrix"])
    def test_block_budget_exits_2(self, tmp_path, capsys, monkeypatch, spatial, budget,
                                  field):
        # the padded blocks (N_pad, m, m) complex must fit the budget; a budget
        # one byte short exercises the refusal without allocating anything large
        from evoq import config as config_module

        monkeypatch.setattr(config_module, "_BLOCK_BUDGET", budget)
        path = write_config(tmp_path, {**base_config(), **spatial})
        assert main(["solve", "--config", path]) == 2
        assert field in capsys.readouterr().err
        monkeypatch.setattr(config_module, "_BLOCK_BUDGET", budget + 1)
        assert main(["solve", "--config", path]) == 0

    @pytest.mark.parametrize("header, csv_row", [
        (None, "nan"),
        ("{}", None),
        ("not json", None),
    ], ids=["nan-row", "empty-header", "header-not-json"])
    def test_unreadable_custom_forcing_exits_2(self, tmp_path, capsys, header, csv_row):
        # a custom forcing is read at load time, and each way its files can
        # be wrong is a rejected config naming the field
        cfg = load_config(write_config(tmp_path, base_config()))
        evoq.save_signal(cfg.build_rhs(), str(tmp_path / "forcing"))
        if header is not None:
            (tmp_path / "forcing.json").write_text(header)
        if csv_row is not None:
            lines = (tmp_path / "forcing.csv").read_text().splitlines()
            lines[3] = ",".join([csv_row] * len(lines[3].split(",")))
            (tmp_path / "forcing.csv").write_text("\n".join(lines) + "\n")
        payload = {**base_config(), "rhs": {"shape": "custom", "csv": "forcing"}}
        assert main(["solve", "--config", write_config(tmp_path, payload, "c2.json")]) == 2
        assert "rhs.csv" in capsys.readouterr().err

    def test_non_finite_report_numbers_are_strings(self, tmp_path):
        # at a vanishing weight the heat solve is singular at frequency 0:
        # the norms overflow, a numerical failure written as valid JSON
        with open(os.path.join(CONFIG_DIR, "heat_small.json")) as fh:
            payload = json.load(fh)
        payload["nu"] = 1e-300
        out = tmp_path / "out"
        code, caught = main_recording_warnings(
            ["solve", "--config", write_config(tmp_path, payload), "--out", str(out)])
        assert code == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads((out / "report.json").read_text(encoding="utf-8"),
                            parse_constant=reject)["report"]
        assert report["norm_ratio"] == "infinity"
        assert report["causality_leakage"] == "nan"

    @pytest.mark.parametrize("command", [
        "adjoint", "verify --suite duality", "verify --suite causality"])
    def test_overflowing_norms_warn_nothing(self, tmp_path, command):
        # the vanishing weight of the test above, under the other commands
        # whose norms overflow
        payload = bundled("heat_small", 256)
        payload["nu"] = 1e-300
        name, *options = command.split()
        code, caught = main_recording_warnings(
            [name, "--config", write_config(tmp_path, payload), *options])
        assert code == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_control_csvs_reload_to_recomputed_signals(self, tmp_path):
        payload = base_config()
        payload["control"] = {"B": [[[1.0, 0.0]]] + [[[0.0, 0.0]]] * 4, "T": 1.0}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["control", "--config", path, "--out", str(out)]) == 0

        cfg = load_config(path)
        rtol = cfg.tolerances["svd_cutoff"]
        base = evoq.EvoProblem(cfg.nu, cfg.grid, cfg.law, cfg.A, cfg.build_rhs(), "forward")
        cp = evoq.ControlProblem(base=base, B=cfg.control.B, T=cfg.control.T)
        maps = evoq.assemble_endmaps(cp, cfg.pad_fraction)
        G = evoq.null_control(cp, maps, rtol=rtol,
                              feasibility_tol=cfg.tolerances["feasibility"]).G
        witness = evoq.observability_constant(cp, maps, rtol=rtol).witness
        for name, expected in (("control_G", G), ("observability_witness", witness)):
            loaded = evoq.load_signal(str(out / name))
            assert (loaded.grid, loaded.nu) == (expected.grid, expected.nu)
            assert loaded.phi.tobytes() == expected.phi.tobytes(), name

    def test_noncoercive_mass_exits_2(self, tmp_path):
        payload = base_config()
        payload["spatial"] = {"kind": "matrix", "matrix": [[[0.0, 0.0]]]}
        payload["law"] = {"coeffs": [[[[-1.0, 0.0]]]]}
        code = main(["solve", "--config", write_config(tmp_path, payload)])
        assert code == 2

    def test_missing_config_exits_3(self):
        code = main(["solve", "--config", "/nonexistent/cfg.json"])
        assert code == 3

    def test_control_infeasible_is_a_finding(self, tmp_path):
        # B = 0: uncontrollable, but the command succeeds and reports it
        out = tmp_path / "out"
        code = main(["control", "--config",
                     os.path.join(CONFIG_DIR, "maxwell_small.json"),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "control_result.json").read_text())
        assert payload["result"]["feasible"] is False
        obs = json.loads((out / "observability.json").read_text())
        assert obs["c_obs"] == "infinity"

    def test_control_certify_duality(self, tmp_path):
        code = main(["control", "--config",
                     os.path.join(CONFIG_DIR, "heat_small.json"),
                     "--certify-duality", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "duality_table.json").read_text())
        assert payload["agree"] is True

    def test_control_pointwise(self, tmp_path):
        out = tmp_path / "out"
        code = main(["control", "--config",
                     os.path.join(CONFIG_DIR, "pointwise_decay.json"),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "control_result.json").read_text())
        assert payload["result"]["feasible"] is True
        assert payload["result"]["terminal_residual"] < 1e-8 * 2
        assert (out / "control_G.csv").exists()

    def test_reports_are_bitwise_reproducible(self, tmp_path):
        cfg = os.path.join(CONFIG_DIR, "heat_small.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("report.json", "solution.csv", "solution.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "evoq.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "solve" in proc.stdout

    def test_programmatic_run_wrapper(self, tmp_path):
        from evoq.cli import run

        code = run(os.path.join(CONFIG_DIR, "heat_small.json"), "solve",
                   str(tmp_path / "out"))
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()
