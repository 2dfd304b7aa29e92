import argparse
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
        a, b, c = report["feasibility"]["covariance"]
        assert a * b - c * c == 0.0  # standardized det H: a two-point law
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

    @pytest.mark.parametrize(
        "argv", [["1", "2", "2", "-0.0", "0", "3.5"], ["1.5"] * 10**5], ids=["repeats-and-zeros", "1e5-copies"]
    )
    def test_samples_report_the_moments_of_moments_from_samples(self, capsys, argv):
        # the CLI sums its own empirical law; repeats and zeros of both signs are merged alike
        code, report, _ = run(capsys, "moments", "--samples", *argv)
        assert code == 0
        expected = moments.moments_from_samples([float(a) for a in argv])
        assert [float.hex(report["moments"][f"m{j}"]) for j in range(5)] == list(map(float.hex, expected))

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
        # det H of this law is of order 1e360; the report carries only the standardized covariance
        code, report, err = run(capsys, "moments", "--samples", "1e60", "-1e60", "0")
        assert code == 0 and err == ""
        assert report["feasibility"]["psd"] is True
        assert report["feasibility"]["scale"] == pytest.approx((2.0 / 3.0) ** 0.25 * 1e60, rel=1e-12)

    def test_reports_standardized_covariance(self, capsys):
        code, report, _ = run(capsys, "moments", "--samples", "-1", "1")
        feas = report["feasibility"]
        assert feas["scale"] == 1.0
        assert feas["covariance"] == [1.0, 0.0, 0.0]  # Var X, Var X^2, Cov(X, X^2)
        assert feas["margin"] == 1e-10
        assert "min_eigenvalue" not in feas

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"atoms": [{"x": 0.0, "p": 1.0, "extra": 1}]}))
        code, _, err = run(capsys, "moments", str(path))
        assert code == 2


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read"),
        ("{", "invalid JSON"),
        ("[]", 'single key "atoms"'),
        ('{"atoms": []}', '"atoms" must be a nonempty list'),
        ('{"atoms": [{"x": "1", "p": 1}]}', "x and p must be numbers"),
        ('{"atoms": [{"x": true, "p": true}]}', "x and p must be numbers"),
        ('{"atoms": [{"x": NaN, "p": 1}]}', "non-finite"),
    ],
    ids=["missing", "invalid-json", "top-level-list", "empty-atoms", "string-x", "bool-x-p", "nan-x"],
)
def test_bad_distribution_file_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "law.json"
    if text is not None:
        path.write_text(text)
    for command in ("moments", "bound"):
        code, report, err = run(capsys, command, str(path))
        assert (code, report) == (2, None)
        assert err.count("\n") == 1 and message in err and "Traceback" not in err


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
            # the sqrt bound of the Rademacher law is its rounding allowance, 5.96e-8 s^3
            assert res["bound"] == pytest.approx(1e225 * unit["bounds"][name]["bound"], rel=1e-12, abs=1e217)
        assert report["bounds"]["sqrt"]["tight"] is True
        assert report["interval"] == {"lo": -5.960464477539069e217, "hi": 5.960464477539069e217}
        assert report["certificate"]["roots"] == pytest.approx([-1e75, 1e75], rel=1e-12)
        assert report["feasibility"]["scale"] == pytest.approx(1e75)

    @pytest.mark.parametrize("m2", ["1.1", "0.123"])
    def test_feasible_vector_reports_fixed_tolerance(self, capsys, m2):
        # m2 = 1.1 rounds Var X^2 of X / s to -2.2e-16, inside the PSD tolerance
        code, report, err = run(capsys, "bound", "--moments", "1", "0", m2, "0", "1.2100000000000002")
        assert code == 0, err
        assert report["feasibility"]["psd"] is True
        assert report["tolerance"] == bounds.DEFAULT_TIGHT_TOL == 1e-8
        assert report["interval"]["lo"] <= 0.0 <= report["interval"]["hi"]

    @pytest.mark.parametrize("m2", ["1e-20", "1e-320"])
    def test_tiny_variance_is_not_tight(self, capsys, m2):
        # PSD, and |slack| / s^3 = 5e-11 is within the tolerance, but no
        # two-point law has these moments: the zero-mean one with this m2 and
        # m3 has m4 = 0.25 (m2 = 1e-20), or an atom beyond double range (1e-320)
        code, report, err = run(capsys, "bound", "--moments", "1", "0", m2, "5e-11", "1")
        assert (code, err) == (0, "")
        for res in report["bounds"].values():
            assert res.get("tight") is not True and "witness" not in res
        assert abs(report["bounds"]["sqrt"]["scaled_slack"]) <= 1e-8
        assert "certificate" not in report

    @pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
    def test_m3_outside_its_interval_exits_3(self, capsys, lam):
        # Var X / s^2 = 1e-320 allows |m3| / s^3 up to 1e-160 (+ the PSD
        # tolerance 1e-10), not 5e-9; lam = 1e-6 underflows m2 to 0
        argv = [repr(m * lam**j) for j, m in enumerate((1.0, 0.0, 1e-320, 5e-9, 1.0))]
        code, report, err = run(capsys, "bound", "--moments", *argv)
        assert (code, report) == (3, None) and "not a moment sequence" in err

    def test_report_shows_margins(self, capsys):
        code, report, _ = run(capsys, "bound", "--moments", "1", "0", "1", "0", "2")
        feas = report["feasibility"]
        assert feas["psd"] is True and feas["scale"] == pytest.approx(2.0**0.25)
        # X / s: Var X = 2^(-1/2), Var X^2 = 1/2 and Cov(X, X^2) = 0; the least is 1/2
        assert feas["covariance"] == pytest.approx([2.0**-0.5, 0.5, 0.0])
        assert feas["margin"] == pytest.approx(0.5 + 1e-10)
        sqrt = report["bounds"]["sqrt"]
        assert sqrt["scaled_slack"] == pytest.approx(sqrt["slack"] / 2.0**0.75)
        assert sqrt["tight"] is False

    @pytest.mark.parametrize(
        "moments",
        [
            ["1", "-1e-300", "1e-300", "-1e-300", "1e-300"],
            ["1.0", "-0.9999998849", "0.9999997738543327", "-0.9999996668639017", "0.9999995639296109"],
        ],
        ids=["tiny-mass-far-out", "near-coincident-atoms"],
    )
    def test_witness_and_certificate_reproduce_moments(self, capsys, moments):
        code, report, err = run(capsys, "bound", "--moments", *moments)
        assert code == 0, err
        want = [float(m) for m in moments]
        s = want[4] ** 0.25
        laws = [res["witness"] for res in report["bounds"].values() if "witness" in res]
        for atoms in laws + [report["certificate"]["recovered"]]:
            got = [sum(a["p"] * a["x"] ** j for a in atoms) for j in range(5)]
            assert all(abs(g - w) <= 1e-9 * s**j for j, (g, w) in enumerate(zip(got, want)))

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
        assert report["interval"] == {"lo": -5.960464477539068e-08, "hi": 5.960464477539068e-08}

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

    def test_nan_exit_2(self, capsys):
        code, report, err = run(capsys, "interval", "nan", "1", "2")
        assert (code, report) == (2, None)
        assert err == "momentbounds: non-finite moment\n"

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
        code, report, _ = run(capsys, "verify", "--step", "0.05", "--trials", "500", "--seed", "1")
        assert code == 0
        assert report["verified"] is True
        assert report["input"] == {"step": 0.05, "trials": 500, "seed": 1}
        assert 0.0 <= report["gap"] <= report["gap_tolerance"] == cli.GAP_TOL
        assert report["falsifier"]["eq_sqrt_violations"] == 0
        assert 0 <= report["falsifier"]["worst_trial"] < 500
        assert report["falsifier"]["violating_trials"] == []
        assert report["lp_pivots"] > 0
        y0, y1, y2 = report["oracle_dual"]
        assert y0 + y1 * 0.0 + y2 * 1.0 == pytest.approx(report["oracle_max_m3"], abs=1e-12)

    @pytest.mark.parametrize(
        "argv, lowered, gap",
        [
            (["--step", "0.5"], 0.0, 0.037),
            (["--trials", "10"], 1e-4, -4.13e-5),
        ],
        ids=["grid-too-coarse", "optimum-above-a-lowered-constant"],
    )
    def test_gap_outside_its_limits_exit_1(self, capsys, monkeypatch, argv, lowered, gap):
        # above GAP_TOL the grid is too coarse to show sharpness; below
        # -FALSIFIER_TOL a certified law beats the claimed bound, which
        # 10 falsifier trials do not catch
        monkeypatch.setattr(bounds, "QUARTER_CONSTANT", bounds.QUARTER_CONSTANT * (1.0 - lowered))
        code, report, err = run(capsys, "verify", *argv, "--trials", "10")
        assert (code, err) == (1, "")
        assert report["verified"] is False and report["falsifier"]["violating_trials"] == []
        assert report["gap"] == pytest.approx(gap, rel=1e-2)

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
        # step 10 leaves the one point -3 of [-3, 3]
        code, report, err = run(capsys, "verify", "--step", "10", "--trials", "10")
        assert (code, report) == (3, None)
        assert err == "momentbounds: infeasible configuration\n"

    def test_zero_trials_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--trials", "0")
        assert code == 2

    def test_trials_above_cap_exit_2_before_the_oracle(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "oracle_max_m3", None)  # the oracle may not run
        code, report, err = run(capsys, "verify", "--trials", "1000000000000")
        assert (code, report) == (2, None)
        assert err == f"momentbounds: trials must be in 1..{oracle.MAX_TRIALS}\n"

    def test_negative_seed_exit_2(self, capsys):
        code, report, err = run(capsys, "verify", "--seed", "-1", "--trials", "10")
        assert (code, report) == (2, None)
        assert err == "momentbounds: seed must be nonnegative\n"

    def test_seed_above_range_exit_2(self, capsys):
        code, report, err = run(capsys, "verify", "--seed", str(2**64), "--trials", "10")
        assert (code, report) == (2, None)
        assert err == "momentbounds: seed must be below 2**64\n"
        code, report, _ = run(capsys, "verify", "--seed", str(2**64 - 1), "--trials", "10", "--step", "0.5")
        assert code == 1 and report["input"]["seed"] == 2**64 - 1  # the coarse grid's verdict, not the seed's


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--moments", "1", "0", "1", "0", "1", "--tol=1e-8"],
        ["verify", "--gap-tol", "5e-3"],
        ["verify", "--m4", "1"],
        ["verify", "--grid-lo", "-3"],
        ["verify", "--grid-hi", "3"],
    ],
    ids=["bound-tol", "verify-gap-tol", "verify-m4", "verify-grid-lo", "verify-grid-hi"],
)
def test_removed_options_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
    # m3_interval takes raw floats and computes its own variances in ``bounds``
    calls, covariance = [], moments.covariance

    def counting(*args):
        calls.append(args)
        return covariance(*args)

    monkeypatch.setattr(moments, "covariance", counting)
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
FEASIBILITY = keys("feasibility", "psd", "scale", "covariance", "margin")
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
        | keys("input", "step", "trials", "seed")
        | {"sharp_bound", "oracle_max_m3", "gap", "gap_tolerance", "candidates_examined"}
        | {"oracle_dual", "lp_pivots", "verified"}
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


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["bound", "--moments", "1", "0", "1", "0", "1"], "bound_rademacher.json"),
        (["bound", "--moments", "1", "-0.25", "1.5", "0.3", "4.5"], "bound_interior.json"),
        (["moments", "--samples", "1", "2", "2", "-0.0", "0"], "moments_samples.json"),
    ],
    ids=["bound-with-witness-and-certificate", "bound-without-witness", "moments-samples"],
)
def test_report_text_is_pinned(capsys, argv, golden):
    # key order, float text and the {"x", "p"} atom form, which key paths do not show
    assert main(argv) == 0
    assert capsys.readouterr().out == (Path(__file__).parent / "golden" / golden).read_text()


def test_main_builds_one_parser(capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, argv):
        parsers.append(self)
        return parse_args(self, argv)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert run(capsys, "interval", "0", "1", "2")[0] == 0
    assert run(capsys, "extremal", "1")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


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
assert "dataclasses" not in sys.modules, "the scalar CLI imported dataclasses"

import momentbounds
assert callable(momentbounds.oracle_max_m3)
assert "dataclasses" not in sys.modules, "the oracle imported dataclasses"
assert momentbounds.OracleConfig is momentbounds.oracle.OracleConfig
assert momentbounds.CertificateError is momentbounds.oracle.CertificateError
assert list(momentbounds.__all__[-len(momentbounds.oracle.__all__):]) == momentbounds.oracle.__all__
namespace = {}
exec("from momentbounds import *", namespace)
assert all(name in namespace for name in momentbounds.__all__)
cfg = namespace["OracleConfig"](grid_step=0.5)
assert cfg.size == 13
report = namespace["FalsifierReport"](10, 0, 0, 0, 0, 0.25, 3, ())
assert report.total_violations == 0
assert "numpy" not in sys.modules, "the oracle's names, configuration or records imported numpy"
print(repr(namespace["oracle_max_m3"](cfg).max_m3))
assert "numpy" in sys.modules
print("ok")
"""


def test_closed_stdout_exits_5_without_traceback():
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "momentbounds.cli", "bound", "--moments", "1", "0", "1e-20", "5e-11", "1"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_CLOSED_STDOUT == 5
    assert proc.stderr == ""


def test_scalar_subcommands_import_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    max_m3, ok = proc.stdout.split()
    assert ok == "ok"
    assert max_m3 == repr(oracle.oracle_max_m3(oracle.OracleConfig(grid_step=0.5)).max_m3)


#: Calls that their argument checks refuse, with the message of each.
REFUSED_CALLS = (
    ("random_falsifier(0, 1)", f"trials must be in 1..{oracle.MAX_TRIALS}"),
    ("random_falsifier(10, -1)", "seed must be nonnegative"),
    ("random_falsifier(10, 2**64)", "seed must be below 2**64"),
    ("replay_trial(0, -1)", "index must be nonnegative"),
    ("OracleConfig(grid_step=0)", "grid_step must be positive"),
)


def test_refused_calls_do_not_load_numpy():
    code = "import sys\nfrom momentbounds import *\n"
    for call, _ in REFUSED_CALLS:
        code += f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\nelse:\n    print('accepted')\n"
    code += "print('numpy' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [*(message for _, message in REFUSED_CALLS), "False"]


#: The falsifier, a replay and a verify run, none of which loads numpy.random;
#: prints "eager" instead if numpy imports it with itself, as older releases do.
NO_NUMPY_RANDOM = """
import contextlib, io, sys
import numpy
if "numpy.random" in sys.modules:
    print("eager"); sys.exit()
from momentbounds import random_falsifier, replay_trial
from momentbounds.cli import main

random_falsifier(10, 0)
assert "numpy.random" not in sys.modules, "random_falsifier loaded numpy.random"
replay_trial(0, 3)
assert "numpy.random" not in sys.modules, "replay_trial loaded numpy.random"
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "--step", "0.5", "--trials", "10"]) == 1
assert "numpy.random" not in sys.modules, "verify loaded numpy.random"
print("ok")
"""


def test_falsifier_does_not_load_numpy_random():
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "eager":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert proc.stdout.strip() == "ok"


def test_unknown_attribute_raises_without_importing_numpy():
    code = """import sys, momentbounds
try:
    momentbounds.no_such_name
except AttributeError as exc:
    print(exc)
assert "numpy" not in sys.modules and "momentbounds.oracle" not in sys.modules
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'momentbounds' has no attribute 'no_such_name'\n"


#: With numpy's import blocked, as on a system without numpy, takes the
#: Hankel rows of the library and every public name, configures the oracle,
#: then runs the CLI.
NO_NUMPY = """import sys; sys.modules['numpy'] = None
import momentbounds as mb
assert mb.hankel(mb.MomentVector(1, 0, 2, 2, 6)) == ((1, 0, 2), (0, 2, 2), (2, 2, 6))
from momentbounds import *
assert OracleConfig(grid_step=0.5).size == 13
from momentbounds.cli import main; sys.exit(main(sys.argv[1:]))"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["interval", "0", "1", "2"], 0),
        (["bound", "--moments", "1", "0", "2", "2", "6"], 0),
        (["extremal", "1"], 0),
        (["moments", "--samples", "1", "2", "3"], 0),
        (["verify", "--trials", "10"], 2),
    ],
    ids=["interval", "bound", "extremal", "moments", "verify"],
)
def test_without_numpy_only_verify_is_refused(argv, code):
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert "verify needs numpy" in proc.stderr and "pip install numpy" in proc.stderr
    else:
        assert proc.stderr == "" and json.loads(proc.stdout)["command"] == argv[0]
