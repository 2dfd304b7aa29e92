import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from momentbounds import bounds, cli, moments, oracle
from momentbounds.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def write_atoms(tmp_path, atoms, name="dist.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"atoms": atoms}))
    return str(path)


class TestMomentsCommand:
    def test_rademacher_file(self, tmp_path, capsys):
        path = write_atoms(tmp_path, [{"x": -1.0, "p": 0.5}, {"x": 1.0, "p": 0.5}])
        code, report, _ = run(capsys, "moments", path)
        assert code == 0
        assert report["moments"] == {"m0": 1.0, "m1": 0.0, "m2": 1.0, "m3": 0.0, "m4": 1.0}
        assert report["feasibility"]["minors"][-1] == 0.0
        assert report["feasibility"]["psd"] is True
        assert report["version"]

    def test_bad_weight_sum(self, tmp_path, capsys):
        path = write_atoms(tmp_path, [{"x": 0.0, "p": 0.8}])
        code, report, err = run(capsys, "moments", path)
        assert code == 2
        assert "weights do not sum to 1" in err

    def test_two_point_file(self, tmp_path, capsys):
        path = write_atoms(
            tmp_path, [{"x": -1.0, "p": 2.0 / 3.0}, {"x": 2.0, "p": 1.0 / 3.0}]
        )
        code, report, _ = run(capsys, "moments", path)
        assert code == 0
        m = report["moments"]
        assert [m["m0"], m["m1"], m["m2"], m["m3"], m["m4"]] == pytest.approx(
            [1, 0, 2, 2, 6], abs=1e-12
        )

    def test_samples(self, capsys):
        code, report, _ = run(capsys, "moments", "--samples", "1", "2", "3")
        assert code == 0
        assert report["moments"]["m1"] == pytest.approx(2.0)

    def test_negative_exponent_samples(self, capsys):
        code, report, _ = run(capsys, "moments", "--samples", "-1e-05", "1", "-2E+00")
        assert code == 0
        assert report["input"]["samples"] == [-1e-05, 1.0, -2.0]

    def test_deep_nesting_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, report, err = run(capsys, "moments", str(path))
        assert code == 2
        assert report is None
        assert err.count("\n") == 1 and "nested too deeply" in err

    def test_law_at_scale_1e60(self, capsys):
        # det H of this law is of order 1e360; the report carries only standardized minors
        code, report, err = run(capsys, "moments", "--samples", "1e60", "-1e60", "0")
        assert code == 0 and err == ""
        assert report["feasibility"]["psd"] is True
        assert report["feasibility"]["scale"] == pytest.approx((2.0 / 3.0) ** 0.25 * 1e60, rel=1e-12)

    def test_reports_standardized_minors(self, capsys):
        code, report, _ = run(capsys, "moments", "--samples", "-1", "1")
        feas = report["feasibility"]
        assert feas["scale"] == 1.0
        assert feas["minors"] == [1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0]
        assert feas["decisive_minor"] == 0.0 and feas["margin"] == 1e-10
        assert "min_eigenvalue" not in feas

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"atoms": [{"x": 0.0, "p": 1.0, "extra": 1}]}))
        code, _, err = run(capsys, "moments", str(path))
        assert code == 2


class TestBoundCommand:
    def test_tight_two_point(self, capsys):
        code, report, _ = run(capsys, "bound", "--moments", "1", "0", "2", "2", "6")
        assert code == 0
        sqrt = report["bounds"]["sqrt"]
        assert sqrt["bound"] == pytest.approx(2.0)
        assert sqrt["tight"] is True
        witness = {round(a["x"], 9): a["p"] for a in sqrt["witness"]}
        assert witness[-1.0] == pytest.approx(2.0 / 3.0)
        assert witness[2.0] == pytest.approx(1.0 / 3.0)
        assert "certificate" in report

    def test_infeasible_exit_3(self, capsys):
        code, report, err = run(capsys, "bound", "--moments", "1", "0", "1", "0", "0.5")
        assert code == 3
        assert "not a moment sequence" in err

    def test_point_mass(self, capsys):
        code, report, _ = run(capsys, "bound", "--moments", "1", "0", "0", "0", "0")
        assert code == 0
        assert report["bounds"]["trivial"]["bound"] == 0.0
        assert report["bounds"]["sqrt"]["bound"] == 0.0
        assert report["bounds"]["quarter"]["bound"] == 0.0
        assert report["bounds"]["quarter"]["tight"] is True

    def test_positive_mean_degrades_to_interval(self, capsys):
        code, report, _ = run(capsys, "bound", "--moments", "1", "0.5", "1", "0", "2")
        assert code == 0
        assert "note" in report
        assert "sqrt" not in report["bounds"]
        assert "interval" in report

    def test_negative_exponent_moments(self, capsys):
        code, report, _ = run(capsys, "bound", "--moments", "1", "-1e-05", "1", "0", "2")
        assert code == 0
        assert report["moments"]["m1"] == -1e-05

    def test_rademacher_at_scale_1e75(self, capsys):
        # degree-6 quantities of this law overflow; its standardized vector is (0, 1, 0, 1)
        code, unit, _ = run(capsys, "bound", "--moments", "1", "0", "1", "0", "1")
        code, report, err = run(capsys, "bound", "--moments", "1", "0", "1e150", "0", "1e300")
        assert code == 0 and err == ""
        for name, res in report["bounds"].items():
            # the sqrt bound of the Rademacher law is 0, computed with a sqrt(ulp) floor
            assert res["bound"] == pytest.approx(1e225 * unit["bounds"][name]["bound"], rel=1e-12, abs=1e217)
        assert report["bounds"]["sqrt"]["tight"] is True
        assert report["interval"] == {"lo": 0.0, "hi": 0.0}
        assert report["certificate"]["roots"] == pytest.approx([-1e75, 1e75], rel=1e-12)
        assert report["feasibility"]["scale"] == pytest.approx(1e75)

    @pytest.mark.parametrize("m2", ["1.1", "0.123"])
    def test_tiny_tightness_tol_keeps_feasible_vector(self, capsys, m2):
        # --tol is the tightness tolerance only: feasibility keeps its own fixed tolerance
        code, report, err = run(capsys, "bound", "--moments", "1", "0", m2, "0", "1.2100000000000002", "--tol", "1e-20")
        assert code == 0, err
        assert report["feasibility"]["psd"] is True
        assert report["tolerance"] == 1e-20
        assert report["interval"]["lo"] <= 0.0 <= report["interval"]["hi"]

    def test_report_shows_margins(self, capsys):
        code, report, _ = run(capsys, "bound", "--moments", "1", "0", "1", "0", "2")
        feas = report["feasibility"]
        assert feas["psd"] is True and feas["scale"] == pytest.approx(2.0**0.25)
        assert feas["decisive_minor"] == min(feas["minors"]) == pytest.approx(2.0**-1.5)
        assert feas["margin"] == pytest.approx(feas["decisive_minor"] + 1e-10)
        sqrt = report["bounds"]["sqrt"]
        assert sqrt["scaled_slack"] == pytest.approx(sqrt["slack"] / 2.0**0.75)
        assert sqrt["tight"] is False

    def test_report_round_trip(self, capsys):
        code, first, _ = run(capsys, "bound", "--moments", "1", "-0.25", "1.5", "0.3", "4.5")
        m = first["moments"]
        code, second, _ = run(
            capsys,
            "bound",
            "--moments",
            repr(m["m0"]),
            repr(m["m1"]),
            repr(m["m2"]),
            repr(m["m3"]),
            repr(m["m4"]),
        )
        assert second["bounds"] == first["bounds"]


class TestIntervalCommand:
    def test_degenerate(self, capsys):
        code, report, _ = run(capsys, "interval", "0", "1", "1")
        assert code == 0
        assert report["interval"] == {"lo": 0.0, "hi": 0.0}

    def test_symmetric(self, capsys):
        code, report, _ = run(capsys, "interval", "0", "1", "2")
        assert code == 0
        assert report["interval"]["lo"] == pytest.approx(-1.0)
        assert report["interval"]["hi"] == pytest.approx(1.0)

    def test_negative_exponent(self, capsys):
        code, report, _ = run(capsys, "interval", "-1e-05", "1", "2")
        assert code == 0
        assert report["input"]["m1"] == -1e-05
        assert report["interval"]["lo"] == pytest.approx(-1e-05 - 1.0, abs=1e-9)

    def test_infeasible(self, capsys):
        code, _, err = run(capsys, "interval", "1", "0.5", "1")
        assert code == 3
        assert "infeasible" in err

    def test_agrees_with_bound_on_feasibility(self, capsys):
        # Var X^2 of X / s is -5e-9 here: below the PSD tolerance for both commands
        code, report, err = run(capsys, "interval", "0", "1", "0.999999995")
        assert (code, report) == (3, None) and "infeasible" in err
        code, report, err = run(capsys, "bound", "--moments", "1", "0", "1", "0", "0.999999995")
        assert (code, report) == (3, None) and "not a moment sequence" in err


class TestExtremalCommand:
    def test_sigma_one(self, capsys):
        code, report, _ = run(capsys, "extremal", "1")
        assert code == 0
        assert report["u"] == pytest.approx(0.5176380902050415)
        assert report["v"] == pytest.approx(1.9318516525781366)
        assert report["moments"]["m4"] == pytest.approx(3.0)

    def test_unit_m4_scale(self, capsys):
        code, report, _ = run(capsys, "extremal", repr(3.0**-0.25))
        assert code == 0
        assert report["moments"]["m3"] == pytest.approx(0.6204032394013997, rel=1e-12)

    def test_negative_sigma(self, capsys):
        code, _, err = run(capsys, "extremal", "--", "-1")
        assert code == 2

    def test_negative_exponent_sigma_is_a_value(self, capsys):
        code, _, err = run(capsys, "extremal", "-1e-05")
        assert code == 2
        assert "sigma must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [["extremal", "1e77"], ["extremal", "1e200"], ["moments", "--samples", "1e200", "1"]],
    ids=["extremal-1e77", "extremal-1e200", "samples-1e200"],
)
def test_overflowing_law_exit_2(capsys, argv):
    code, report, err = run(capsys, *argv)
    assert (code, report) == (2, None)
    assert err == "momentbounds: numbers too large for double precision: the fourth moment is beyond double range\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bound"], 2),
        (["bound", "LAW", "--moments", "1", "0", "1", "0", "1"], 2),
        (["bound", "LAW"], 0),
        (["bound", "--moments", "1", "0", "1", "0", "1"], 0),
        (["moments"], 2),
        (["moments", "LAW", "--samples", "-1", "1"], 2),
        (["moments", "LAW"], 0),
        (["moments", "--samples", "-1", "1"], 0),
    ],
    ids=["bound-none", "bound-both", "bound-file", "bound-moments", "moments-none", "moments-both", "moments-file", "moments-samples"],
)
def test_exactly_one_input(tmp_path, capsys, argv, code):
    law = write_atoms(tmp_path, [{"x": -1.0, "p": 0.5}, {"x": 1.0, "p": 0.5}])
    argv = [law if a == "LAW" else a for a in argv]
    if code == 0:
        assert run(capsys, *argv)[0] == 0
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    want = "is required" if len(argv) == 1 else "not allowed with argument"
    assert want in capsys.readouterr().err


class TestVerifyCommand:
    def test_coarse_run_passes(self, capsys):
        code, report, _ = run(
            capsys,
            "verify",
            "--grid-lo", "-2", "--grid-hi", "2", "--step", "0.05",
            "--trials", "500", "--seed", "1", "--gap-tol", "0.01",
        )
        assert code == 0
        assert report["verified"] is True
        assert report["falsifier"]["eq_sqrt_violations"] == 0
        assert 0 <= report["falsifier"]["worst_trial"] < 500
        assert report["falsifier"]["violating_trials"] == []
        assert report["lp_pivots"] > 0
        y0, y1, y2 = report["oracle_dual"]
        assert y0 + y1 * 0.0 + y2 * 1.0 == pytest.approx(report["oracle_max_m3"], abs=1e-12)

    def test_oversized_grid_exit_2(self, capsys):
        code, report, err = run(capsys, "verify", "--step", "1e-9")
        assert code == 2
        assert report is None
        assert "exceeds the cap" in err

    def test_uncertified_optimum_exit_1(self, capsys, monkeypatch):
        def refuse(*args):
            raise oracle.CertificateError("LP certificate failed: dual check")

        monkeypatch.setattr(oracle, "check_certificate", refuse)
        code, report, err = run(capsys, "verify", "--step", "0.1", "--trials", "10")
        assert code == 1
        assert report is None
        assert "certificate failed" in err

    def test_degenerate_grid_exit_3(self, capsys):
        code, _, err = run(capsys, "verify", "--step", "10")
        assert code == 3

    def test_zero_trials_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--trials", "0")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--moments", "1", "0", "1", "0", "1", "--tol", "-1"],
        ["bound", "--moments", "1", "0", "1", "0", "1", "--tol", "nan"],
        ["verify", "--gap-tol", "nan"],
        ["verify", "--gap-tol", "-1"],
    ],
    ids=["tol-negative", "tol-nan", "gap-tol-nan", "gap-tol-negative"],
)
def test_bad_tolerance_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be a positive finite number" in capsys.readouterr().err


def test_bound_standardizes_twice(capsys, monkeypatch):
    # once for the moment vector, once inside m3_interval, which takes raw floats
    calls, standardize = [], moments.standardize

    def counting(*args):
        calls.append(args)
        return standardize(*args)

    monkeypatch.setattr(bounds, "standardize", counting)
    monkeypatch.setattr(moments, "standardize", counting)
    code, report, _ = run(capsys, "bound", "--moments", "1", "0", "2", "2", "6")
    assert code == 0 and "certificate" in report
    assert len(calls) == 2


def test_bound_decides_psd_once(capsys, monkeypatch):
    calls, principal_minors = [], moments.principal_minors

    def counting(*args):
        calls.append(args)
        return principal_minors(*args)

    monkeypatch.setattr(moments, "principal_minors", counting)
    code, report, _ = run(capsys, "bound", "--moments", "1", "0", "2", "2", "6")
    assert code == 0 and "certificate" in report
    assert len(calls) == 1


def key_paths(node, prefix=""):
    """Dotted paths of every key of a report; "[]" stands for the items of a list."""
    if isinstance(node, dict):
        return {p for k, v in node.items() for p in {prefix + k} | key_paths(v, f"{prefix}{k}.")}
    if isinstance(node, list):
        return {p for v in node for p in key_paths(v, f"{prefix}[].")}
    return set()


def keys(prefix, *names):
    return {prefix} | {f"{prefix}.{n}" for n in names}


HEAD = {"tool", "version", "command", "input"}
ATOMS = ("[].x", "[].p")
MOMENTS = keys("moments", "m0", "m1", "m2", "m3", "m4")
FEASIBILITY = keys("feasibility", "psd", "scale", "minors", "decisive_minor", "margin")
BOUND = ("bound", "slack", "scaled_slack", "tight")
BOUND_HEAD = HEAD | MOMENTS | FEASIBILITY | {"input.moments", "tolerance"} | keys("interval", "lo", "hi")
SHARP = keys("bounds", "trivial", "trivial.bound", "sqrt", "quarter") | keys("bounds.sqrt", *BOUND) | keys("bounds.quarter", *BOUND)

REPORT_SHAPES = {
    "moments-file": (
        ["moments", "LAW"],
        HEAD | keys("input", "file", "atoms", *(f"atoms.{a}" for a in ATOMS)) | MOMENTS | {"abs_third_moment"} | FEASIBILITY,
    ),
    "moments-samples": (
        ["moments", "--samples", "-1", "1"],
        HEAD | {"input.samples"} | MOMENTS | {"abs_third_moment"} | FEASIBILITY,
    ),
    "bound-certificate": (
        ["bound", "--moments", "1", "0", "2", "2", "6"],
        BOUND_HEAD | SHARP | keys("bounds.sqrt.witness", *ATOMS)
        | keys("certificate", "coeffs", "roots", "recovered", *(f"recovered.{a}" for a in ATOMS)),
    ),
    "bound-interior": (["bound", "--moments", "1", "-0.25", "1.5", "0.3", "4.5"], BOUND_HEAD | SHARP),
    "bound-positive-mean": (
        ["bound", "--moments", "1", "0.5", "1", "0", "2"],
        BOUND_HEAD | keys("bounds", "trivial", "trivial.bound") | {"note"},
    ),
    "interval": (["interval", "0", "1", "2"], HEAD | keys("input", "m1", "m2", "m4") | keys("interval", "lo", "hi")),
    "extremal": (
        ["extremal", "1"],
        HEAD | {"input.sigma", "u", "v", "quarter_bound"} | keys("atoms", *ATOMS) | MOMENTS,
    ),
    "verify": (
        ["verify", "--step", "0.1", "--trials", "100"],
        HEAD
        | keys("input", "grid_lo", "grid_hi", "step", "m4", "trials", "seed")
        | {"sharp_bound", "oracle_max_m3", "gap", "gap_tolerance", "candidates_examined"}
        | {"constraint_residuals", "oracle_dual", "lp_pivots", "verified"}
        | keys("oracle_argmax", *ATOMS)
        | keys(
            "falsifier",
            "trials",
            "eq_sqrt_violations",
            "eq_quarter_violations",
            "interval_violations",
            "psd_violations",
            "worst_scaled_slack",
            "worst_trial",
            "violating_trials",
        ),
    ),
}


@pytest.mark.parametrize("case", REPORT_SHAPES)
def test_report_shape(case, tmp_path, capsys):
    argv, shape = REPORT_SHAPES[case]
    law = write_atoms(tmp_path, [{"x": -1.0, "p": 0.5}, {"x": 1.0, "p": 0.5}])
    code, report, _ = run(capsys, *(law if a == "LAW" else a for a in argv))
    assert code == 0
    assert key_paths(report) == shape


def test_unexpected_exception_exit_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "m3_interval", broken)
    code, report, err = run(capsys, "interval", "0", "1", "2")
    assert code == 4
    assert report is None
    assert err == "momentbounds: internal error: ZeroDivisionError: float division by zero\n"


IMPORT_GUARD = """
import contextlib, io, json, sys
from momentbounds.cli import main

cases = (
    ["interval", "0", "1", "2"],
    ["extremal", "1"],
    ["moments", "--samples", "1", "2", "3"],
    ["bound", "--moments", "1", "-0.25", "1.5", "0.3", "4.5"],
    ["bound", "--moments", "1", "0", "2", "2", "6"],
)
for argv in cases:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    json.loads(out.getvalue())
assert "certificate" in json.loads(out.getvalue())
assert "numpy" not in sys.modules, "the scalar CLI imported numpy"
assert "momentbounds.oracle" not in sys.modules

import momentbounds
assert callable(momentbounds.oracle_max_m3)
assert momentbounds.OracleConfig is momentbounds.oracle.OracleConfig
assert momentbounds.CertificateError is momentbounds.oracle.CertificateError
assert list(momentbounds.__all__[-len(momentbounds.oracle.__all__):]) == momentbounds.oracle.__all__
namespace = {}
exec("from momentbounds import *", namespace)
assert all(name in namespace for name in momentbounds.__all__)
print("ok")
"""


def test_scalar_subcommands_import_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
