"""Configuration parsing and the command-line front end."""

import ast
import importlib
import json
import os
import subprocess
import sys
import warnings
from types import MappingProxyType

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

    def test_tolerances_section_rejected(self, tmp_path):
        # the ladder is fixed: even an empty section is an unknown field
        payload = base_config()
        payload["tolerances"] = {}
        with pytest.raises(SchemaError, match="^tolerances: unknown field$"):
            load_config(write_config(tmp_path, payload))
        assert isinstance(DEFAULT_TOLERANCES, MappingProxyType)

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

    @pytest.mark.parametrize("command, key, absent", [
        ("solve", "causality_leakage", "amnesia_leakage"),
        ("adjoint", "amnesia_leakage", "causality_leakage"),
    ])
    def test_leakage_key_names_the_direction(self, tmp_path, command, key, absent):
        out = tmp_path / "out"
        code = main([command, "--config", os.path.join(CONFIG_DIR, "heat_small.json"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())["report"]
        assert report[key] <= report["wraparound_tolerance"] + 1e-12
        assert absent not in report

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
        # the ladder is fixed, so a tolerances section of any value is
        # refused: {"svd_cutoff": 0.5} used to make both control commands
        # exit 1, and {"pairing": 1e9} let the duality suite pass any gap
        ("tolerances", {"svd_cutoff": 0.5}, "control"),
        ("tolerances", {"svd_cutoff": 0.5}, "control --certify-duality"),
        ("tolerances", {"pairing": 1e9}, "verify"),
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
        ("grid.t_min", -4.0, "verify --suite reversal"),  # not symmetric about 0
        ("tolerances", {"pairing": 1e9}, "solve"),
        ("tolerances", {"feasibility": 1.0}, "control --certify-duality"),
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

    @pytest.mark.parametrize("field, value, command, message", [
        ("rsh", {"shape": "zero"}, "solve", "unknown field"),
        ("grid.padding_fracton", 0.5, "solve", "unknown field"),
        ("rhs.widht", 2.0, "solve", "unknown field"),
        ("spatial.aa", 3.0, "solve", "unknown field"),
        ("spatial.T_elast", 3.0, "solve", "unknown field"),  # a wave field on heat
        ("control.varient", "pointwise", "control", "unknown field"),
        ("control.U0", [[1.0, 0.0]] * 9, "control",
         "the supported variant takes no initial state"),
    ], ids=["rsh", "grid.padding_fracton", "rhs.widht", "spatial.aa", "spatial.T_elast",
            "control.varient", "control.U0"])
    def test_unread_field_exits_2(self, tmp_path, capsys, field, value, command, message):
        # a key the parser would not read (a misspelling, another kind's
        # coefficient, another variant's state) is refused, not run on defaults
        payload = bundled("heat_small", 64)
        *sections, key = field.split(".")
        target = payload
        for name in sections:
            target = target[name]
        target[key] = value
        code = main([command, "--config", write_config(tmp_path, payload)])
        assert code == 2
        assert capsys.readouterr().err == f"evoq: config rejected: {field}: {message}\n"

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
        # B = 1e-308 e1 scales every singular value of L_G near 1e-308, so the
        # least-norm solve through them overflows: a numerical failure told in
        # one line, under both control commands where they take the dense
        # route.  Heat's certify takes the separating route instead, which
        # solves for no control: a datum that B^* misses decides its verdicts
        def tiny_e1(name):
            payload = bundled(name, 32)
            payload["control"]["B"] = [[[1e-308 if i == 0 else 0.0, 0.0]] for i in range(9)]
            return write_config(tmp_path, payload, f"{name}.json")

        heat, wave = tiny_e1("heat_small"), tiny_e1("wave_small")
        for path, options in ((heat, []), (wave, []), (wave, ["--certify-duality"])):
            code, caught = main_recording_warnings(["control", "--config", path, *options])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("evoq: numerical failure (LinAlgError):")
            assert err.count("\n") == 1
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        code, caught = main_recording_warnings(["control", "--certify-duality", "--config",
                                                heat, "--json"])
        assert code == 0
        assert set(json.loads(capsys.readouterr().out)["verdicts"].values()) == {False}
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_a_huge_injection_entry_leaves_the_verdicts_agreeing(self, tmp_path, capsys):
        # scaling a column of B moves neither ran(L_G) nor a verdict: the mass
        # outside ran(L_G) is measured against ||L_F||_2 alone.  Measured
        # against max(||L_F||_2, sigma_max(L_G)), an entry of 1e100 made the
        # range inclusion read `true` beside two `false` verdicts
        payload = bundled("heat_small", 32)
        payload["control"]["B"][1][0] = [1e100, 0.0]
        path = write_config(tmp_path, payload)
        assert main(["control", "--certify-duality", "--config", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"] == {
            "feasible_for_spanning_set": False, "range_included": False,
            "observability_finite": False}
        assert main(["control", "--config", path, "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "observability.json") as fh:
            assert json.load(fh)["c_obs"] == "infinity"

    def test_a_huge_pointwise_injection_is_controlled(self, tmp_path, capsys):
        # B = 1e308 only scales the sought control by 1e-308; the random
        # linearity probe, scaled by 1/||B||_2, no longer overflows in B g,
        # and the certificate, which takes Phi into range, agrees
        payload = bundled("pointwise_decay", 64)
        payload["control"]["B"] = [[[1e308, 0.0]]]
        path = write_config(tmp_path, payload)
        code, caught = main_recording_warnings(["control", "--config", path, "--json"])
        assert code == 0, capsys.readouterr().err
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["feasible"] and result["terminal_residual"] < 1e-8
        # the control's entries are near 1e-308, and so their squares underflow
        assert result["control_norm"] > 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        code, caught = main_recording_warnings(
            ["control", "--certify-duality", "--config", path, "--json"])
        assert code == 0, capsys.readouterr().err
        table = json.loads(capsys.readouterr().out)
        assert table["agree"] and table["verdicts"] == {"feasible_for_basis": True,
                                                        "range_included": True}
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["solve", "control", "control --certify-duality"])
    def test_pointwise_control_on_an_order_2_law_exits_2(self, tmp_path, capsys, command):
        # the control section is built at load, so every command refuses a
        # pointwise variant on a law that is not M0 + z^-1 M1
        payload = bundled("pointwise_decay", 64)
        payload["law"]["coeffs"].append([[[1.0, 0.0]]])
        name, *options = command.split()
        code = main([name, "--config", write_config(tmp_path, payload), *options])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("evoq: config rejected: control.variant:") and err.count("\n") == 1

    @pytest.mark.parametrize("law, error", [
        ({"coeffs": [[[[1.0, 0.0]]], [[[-2.0, 0.0]]]]}, "NonCoerciveError"),
        ({"nu0": 5.0}, "PreconditionError"),
    ], ids=["not-coercive-at-nu", "nu-below-nu0"])
    @pytest.mark.parametrize("command", ["solve", "control", "control --certify-duality"])
    def test_pointwise_law_is_certified_by_every_command(self, tmp_path, capsys, law, error,
                                                         command):
        payload = bundled("pointwise_decay", 64)
        payload["law"].update(law)
        name, *options = command.split()
        code = main([name, "--config", write_config(tmp_path, payload), *options])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"evoq: config rejected ({error}):") and err.count("\n") == 1

    @pytest.mark.parametrize("name, field, value, command", [
        ("pointwise_decay", "B", [[[1.7e308, 1.7e308]]], "control --certify-duality"),
        ("pointwise_decay", "B", [[[1.7e308, 1.7e308]]], "control"),
        ("pointwise_decay", "U0", [[1e308, 0.0]], "control"),
        ("pointwise_decay", "U0", [[1.7e308, 1.7e308]], "control"),
        ("heat_small", "B", [[[1.7e308, 1.7e308]]] + [[[0.0, 0.0]]] * 8, "control"),
    ], ids=["B-certify", "B-control", "U0-control", "U0-modulus-control", "supported-B-control"])
    def test_huge_pointwise_data_take_the_scale_1_verdict(self, tmp_path, capsys, name, field,
                                                          value, command):
        # every stored number is a double, and the solves, SVDs and norms
        # behind the verdicts take their data into range by a power of two,
        # though a B or U0 of modulus 2.4e308 has no 2-norm that is a double;
        # the control from U0 is |U0| times the control from U0 = 1.  A
        # supported control prints its observability after its result
        first = json.JSONDecoder().raw_decode
        payload = bundled(name, 64 if name == "pointwise_decay" else 32)
        cmd, *options = command.split()
        path = write_config(tmp_path, payload, "unit.json")
        assert main([cmd, "--config", path, *options, "--json"]) == 0
        unit = first(capsys.readouterr().out)[0]
        payload["control"][field] = value
        code, caught = main_recording_warnings(
            [cmd, "--config", write_config(tmp_path, payload), *options, "--json"])
        assert code == 0, capsys.readouterr().err
        table = first(capsys.readouterr().out)[0]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if options:
            assert table["agree"] and table["verdicts"] == {"feasible_for_basis": True,
                                                            "range_included": True}
            return
        result = table["result"]
        assert result["feasible"] == unit["result"]["feasible"] is True
        assert result["regularization"]["rank"] == unit["result"]["regularization"]["rank"]
        if field == "U0":
            modulus = abs(complex(*value[0]) * 2.0 ** -1000)  # times 2^1000, last
            assert result["control_norm"] == pytest.approx(
                unit["result"]["control_norm"] * modulus * 2.0 ** 1000, rel=1e-12)

    ERROR_EXITS = {
        "SchemaError": 2, "NonCoerciveError": 2, "DefinitenessError": 2,
        "NotSkewError": 2, "PreconditionError": 2, "UnsupportedLawError": 2,
        "SizeGuardError": 2,
        "GridError": 1, "PairingError": 1, "WindowError": 1, "PoleError": 1,
        "NonFiniteSignalError": 1, "SymbolError": 1, "NotInvertibleError": 1,
        "SolverError": 1, "OracleError": 1, "ConsistencyError": 1,
    }

    @pytest.mark.parametrize("base, code", sorted(ERROR_EXITS.items()))
    def test_errors_are_classified_by_class(self, tmp_path, capsys, monkeypatch, base, code):
        # a subclass exits as its base class does, under its own name; the
        # table covers every error class in `errors`
        from evoq import cli, errors

        assert {name for name, obj in vars(errors).items() if isinstance(obj, type)
                and issubclass(obj, errors.EvoqError) and obj is not errors.EvoqError
                } == set(self.ERROR_EXITS)
        error = type(f"Special{base}", (getattr(errors, base),), {})

        def fail(*args):
            raise error("probe")

        monkeypatch.setattr(cli, "_cmd_solve", fail)
        assert main(["solve", "--config", write_config(tmp_path, base_config())]) == code
        if base == "SchemaError":
            line = "evoq: config rejected: probe\n"
        else:
            verdict = "config rejected" if code == 2 else "numerical failure"
            line = f"evoq: {verdict} (Special{base}): probe\n"
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("error, code, line", [
        (OverflowError("e^(nu t) overflows"), 1,
         "evoq: numerical failure (OverflowError): e^(nu t) overflows\n"),
        (MemoryError(), 2, "evoq: config rejected (MemoryError): out of memory\n"),
        (MemoryError("Unable to allocate 5.82 GiB"), 2,
         "evoq: config rejected (MemoryError): out of memory: Unable to allocate 5.82 GiB\n"),
    ], ids=["overflow", "memory", "memory-with-message"])
    def test_overflow_and_memory_exit_in_one_line(self, tmp_path, capsys, monkeypatch,
                                                  error, code, line):
        # neither escapes as a traceback: an overflow is a numerical failure,
        # and a run that needs more memory than there is rejects its config.
        # heat_small's B = e1 lacks full row rank, so `control` takes the L_G
        # route
        from evoq import control

        def fail(*args):
            raise error

        monkeypatch.setattr(control, "_lg_route", fail)
        path = write_config(tmp_path, bundled("heat_small", 32))
        assert main(["control", "--config", path]) == code
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("command", ["solve", "control", "control --certify-duality"])
    @pytest.mark.parametrize("mu", [1e-200, 1e-17])
    def test_a_tiny_maxwell_mu_exits_2_naming_it(self, tmp_path, capsys, command, mu):
        # mu = 1e-200 was a SolverError (exit 1) at the first frequency
        # block, and 1e-17 solved a block singular in doubles (exit 0); both
        # are refused at load.  mu = 1e-15 is loaded, and still solves
        name, *options = command.split()
        payload = bundled("maxwell_small", 64)
        payload["spatial"]["mu"] = mu
        code = main([name, "--config", write_config(tmp_path, payload), *options])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("evoq: config rejected: spatial.mu leaves the maxwell block "
                              "singular to working precision at nu=1.0:")
        assert err.count("\n") == 1
        payload["spatial"]["mu"] = 1e-15
        assert main(["solve", "--config", write_config(tmp_path, payload)]) == 0

    @pytest.mark.parametrize("name, field, value, coefficient", [
        ("wave_small", "T_elast", 1e20, "T_elast"),
        ("wave_small", "T_elast", 1e16, "T_elast"),
        ("maxwell_small", "dx", 1e-200, "mu"),
        ("wave_small", "dx", 1e-200, "T_elast"),
    ], ids=["wave-T_elast-1e20", "wave-T_elast-1e16", "maxwell-dx", "wave-dx"])
    def test_a_singular_block_exits_2_naming_its_coefficient_and_dx(
            self, tmp_path, capsys, name, field, value, coefficient):
        # the constant stress field (wave) and the curl-free magnetic field
        # (Maxwell) see only nu times their M0 block at z = nu, against A's
        # column norms, which grow as 1/dx: a huge T_elast solved on blocks
        # singular in doubles (exit 0), and dx = 1e-200 overflowed the
        # floor's norm (a RuntimeWarning); both are refused at load, naming
        # the two values that move the floor.  T_elast = 1e15 still solves
        payload = bundled(name, 64)
        payload["spatial"][field] = value
        code, caught = main_recording_warnings(
            ["solve", "--config", write_config(tmp_path, payload)])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith(f"evoq: config rejected: spatial.{coefficient} leaves the "
                              f"{name.split('_')[0]} block singular to working precision")
        assert f"spatial.dx={payload['spatial'].get('dx', 1.0)!r}" in err
        assert err.count("\n") == 1
        if field == "T_elast":
            payload["spatial"]["T_elast"] = 1e15
            assert main(["solve", "--config", write_config(tmp_path, payload)]) == 0

    def test_suite_acceptance_exits_as_every_command_does(self, tmp_path, capsys,
                                                           monkeypatch):
        # a criterion that fails numerically is told in one line, exit 1
        from evoq import acceptance
        from evoq.errors import ConsistencyError

        def criterion():
            raise ConsistencyError("probe")

        monkeypatch.setattr(acceptance, "ALL_CRITERIA", [criterion])
        assert main(["suite", "acceptance", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "evoq: numerical failure (ConsistencyError): probe\n"

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

    @pytest.mark.parametrize("nu, amplitude, ratio", [
        (0.1, 1e307, "infinity"), (1.0, 5e307, "nan")], ids=["infinity", "nan"])
    def test_non_finite_report_numbers_are_strings(self, tmp_path, nu, amplitude, ratio):
        # one forcing sample on a grid of dt = 32: every sample is a double,
        # but at nu = 0.1 the solution's norm, about 4 times the forcing's
        # 5.7e307, is not; at 5e307 and nu = 1 neither is the forcing's.
        # Their ratio is written as valid JSON
        with open(os.path.join(CONFIG_DIR, "heat_small.json")) as fh:
            payload = json.load(fh)
        payload.update(nu=nu, grid={"t_min": -64.0, "t_max": 64.0, "n": 4})
        payload["rhs"] = {"shape": "indicator", "component": 0, "lo": 0.0, "hi": 1.0,
                          "amplitude": amplitude}
        out = tmp_path / "out"
        code, caught = main_recording_warnings(
            ["solve", "--config", write_config(tmp_path, payload), "--out", str(out)])
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads((out / "report.json").read_text(encoding="utf-8"),
                            parse_constant=reject)["report"]
        assert report["norm_ratio"] == ratio

    @pytest.mark.parametrize("command, expected", [
        ("solve", 1), ("adjoint", 1), ("verify --suite duality", 1),
        ("verify --suite causality", 0), ("control", 0), ("control --certify-duality", 0)])
    def test_overflowing_norms_warn_nothing(self, tmp_path, capsys, command, expected):
        # at a vanishing weight the heat solve is singular at frequency 0,
        # and the sums of squares of its norms leave the float range, but
        # no norm does: each command exits on the ladder's verdict (solve,
        # adjoint and duality fail their residual rungs; dense control runs
        # at n = 32), and nothing warns
        name, *options = command.split()
        payload = bundled("heat_small", 32 if name == "control" else 256)
        payload["nu"] = 1e-300
        out = tmp_path / "out"
        code, caught = main_recording_warnings(
            [name, "--config", write_config(tmp_path, payload), *options, "--out", str(out)])
        assert code == expected, capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if name in ("solve", "adjoint"):
            report = json.loads((out / "report.json").read_text())["report"]
            assert report["norm_ratio"] == pytest.approx(9.07e298, rel=1e-3)

    def test_control_csvs_reload_to_recomputed_signals(self, tmp_path):
        payload = base_config()
        payload["control"] = {"B": [[[1.0, 0.0]]] + [[[0.0, 0.0]]] * 4, "T": 1.0}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["control", "--config", path, "--out", str(out)]) == 0

        # B = e1 lacks full row rank: `control` takes the L_G route, recomputed
        # here on one BLAS thread, as the command runs
        from evoq._blas import one_blas_thread
        from evoq.control import _b_route, _control_result, _lg_route, _route

        cfg = load_config(path)
        base = evoq.EvoProblem(cfg.nu, cfg.grid, cfg.law, cfg.A, cfg.build_rhs(), "forward")
        cp = evoq.ControlProblem(base=base, B=cfg.control.B, T=cfg.control.T)

        @one_blas_thread
        def recomputed():
            op, post, svd_b = _route(cp, cfg.pad_fraction)
            assert _b_route(op, post, svd_b) is None
            obs, solve = _lg_route(op, post, svd_b, cp.F.phi[..., None])
            return _control_result(op, solve).G, obs.witness

        G, witness = recomputed()
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

    def test_commands_start_without_scipy(self, tmp_path):
        # numpy is evoq's one runtime dependency: neither `import evoq`, nor
        # any command below, nor `antiderivative` loads scipy (`scipy.signal`
        # alone costs ~0.9 s).  A fresh interpreter, because pytest itself
        # already holds scipy.
        heat = bundled("heat_small", 32)
        m = len(heat["control"]["B"])
        heat["control"]["B"] = [[[float(i == j), 0.0] for j in range(m)] for i in range(m)]
        solve = write_config(tmp_path, bundled("heat_small", 64), "solve.json")
        control = write_config(tmp_path, heat, "control.json")
        pointwise = os.path.join(CONFIG_DIR, "pointwise_decay.json")
        commands = [["solve", "--config", solve], ["adjoint", "--config", solve]]
        commands += [["verify", "--config", solve, "--suite", suite]
                     for suite in ("duality", "causality", "reversal", "nu-independence")]
        commands += [["control", "--config", control],
                     ["control", "--config", control, "--certify-duality"],
                     ["control", "--config", pointwise],
                     ["suite", "acceptance"]]
        script = f"""
import contextlib, io, json, sys
import evoq, evoq.cli

def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

rows = [["import evoq, evoq.cli", None, scipy_modules()]]
for k, argv in enumerate({commands!r}):
    with contextlib.redirect_stdout(io.StringIO()):
        code = evoq.cli.main(argv + ["--out", {str(tmp_path)!r} + f"/out{{k}}"])
    rows.append([" ".join(argv), code, scipy_modules()])
evoq.antiderivative(evoq.zero_signal(evoq.TimeGrid(-1.0, 1.0, 16), 1.0, 1))
rows.append(["antiderivative", None, scipy_modules()])
print(json.dumps(rows))
"""
        env = dict(os.environ, PYTHONPATH=os.path.join(CONFIG_DIR, "..", "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout)
        assert len(rows) == 2 + len(commands)
        for command, code, loaded in rows:
            assert code in (None, 0), (command, proc.stderr)
            assert loaded == [], (command, loaded[:5])

    def test_no_module_imports_scipy(self):
        # the AST, not `sys.modules`: an import inside a function counts too
        src = os.path.join(CONFIG_DIR, "..", "src", "evoq")
        found = []
        for name in sorted(os.listdir(src)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                found += [(name, node.lineno, module) for module in modules
                          if module.split(".")[0] == "scipy"]
        assert found == []

    def test_console_script_is_cli_main(self, capsys):
        # the installed `evoq` script is `evoq.cli.main`, the one way in
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(CONFIG_DIR, "..", "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["evoq"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        assert entry is main
        with pytest.raises(SystemExit) as exc:
            entry(["--help"])
        assert exc.value.code == 0
        assert "control" in capsys.readouterr().out
