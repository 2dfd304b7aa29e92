import json

import pytest

from momentbounds import oracle
from momentbounds.cli import main


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
        assert report["hankel_det"] == 0.0
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

    def test_overflow_exits_2(self, capsys):
        code, report, err = run(capsys, "bound", "--moments", "1", "0", "1e150", "0", "1e300")
        assert code == 2
        assert report is None
        assert err.count("\n") == 1 and "too large" in err

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
