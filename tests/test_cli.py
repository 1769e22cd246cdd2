"""Tests for the command-line interface.

Checks the report contract (key/value lines, determinism up to the wall-time
line), the exit-code convention (0 pass, 1 check failure, 2 usage error),
angle parsing, and the CSV plot-data formats.
"""

import math

import numpy as np
import pytest

from trigmoment.angles import rational_angle
from trigmoment.cli import main, parse_angle, parse_point


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_dict(text):
    pairs = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(": ")
        pairs[key] = value
    return pairs


def strip_wall_time(text):
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("wall_time_s:")
    )


class TestAngleParsing:
    def test_pi_forms_are_exact(self):
        assert parse_angle("2*pi/5") == rational_angle(2, 5)
        assert parse_angle("pi/3") == rational_angle(1, 3)
        assert parse_angle("pi") == rational_angle(1, 1)
        assert parse_angle("3*pi") == rational_angle(3, 1)

    def test_decimal_form(self):
        assert parse_angle("1.25") == 1.25
        assert parse_angle("-0.5") == -0.5

    def test_garbage_rejected(self):
        with pytest.raises(Exception):
            parse_angle("two pi")

    def test_point_parsing(self):
        np.testing.assert_allclose(parse_point("1,0,-0.5,2e-3"),
                                   [1.0, 0.0, -0.5, 2e-3])
        with pytest.raises(Exception):
            parse_point("1;2")


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--k", "3")
        assert code == 0
        assert report_dict(out)["status"] == "pass"

    def test_bad_k_is_usage_error(self, capsys, tmp_path):
        for argv in (
            ["identities"], ["facets"], ["roots"], ["witness"], ["tangent-cone"],
            ["threshold"], ["edge", "--alpha", "0", "--beta", "1"],
            ["membership", "--theta", "1"],
            ["plot-data", "curve", "--out", str(tmp_path / "unused.csv")],
        ):
            for k in ("1", "0"):
                code, out, err = run_cli(capsys, *argv, "--k", k)
                assert code == 2, (argv, k)
                assert out == ""
                assert f"k must be >= 2, got {k}" in err

    def test_coincident_chord_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "edge", "--k", "2",
                               "--alpha", "1.0", "--beta", "1.0")
        assert code == 2
        assert "distinct" in err

    def test_failed_check_is_one(self, capsys):
        # An absurdly tight identity tolerance turns rounding into a failure.
        code, out, _ = run_cli(capsys, "identities", "--k", "3",
                               "--tol", "1e-18")
        assert code == 1
        assert report_dict(out)["status"] == "fail"

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestReports:
    def test_identities_report(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "--k", "3")
        report = report_dict(out)
        assert code == 0
        assert report["command"] == "identities"
        assert report["instances"] == "12"
        assert float(report["max_residual"]) < 1e-15

    def test_identities_report_at_k50(self, capsys):
        k = 50
        expected = (k - 1) + (2 * k - 2) + k * (k - 1)
        code, out, _ = run_cli(capsys, "identities", "--k", str(k))
        assert code == 0
        assert expected == 2597
        assert sum(line.startswith("identity ") for line in out.splitlines()) == expected
        report = report_dict(out)
        assert report["instances"] == str(expected)
        assert report["status"] == "pass"

    def test_facets_report(self, capsys):
        code, out, _ = run_cli(capsys, "facets", "--k", "4")
        report = report_dict(out)
        assert code == 0
        assert float(report["max_offdiagonal"]) < 1e-10
        assert float(report["min_diagonal"]) >= 0.5

    def test_roots_report_matches_closed_forms(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--k", "3")
        report = report_dict(out)
        assert code == 0
        assert report["roots j=0"] == "pi/3, 2*pi/5, 4*pi/5"
        assert report["roots j=1"] == "pi/5, pi/2, 4*pi/5"
        assert report["roots j=2"] == "2*pi/5, pi/2, 3*pi/5"
        assert float(report["max_deviation"]) < 1e-10

    def test_witness_report(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--k", "5")
        report = report_dict(out)
        assert code == 0
        weights = [float(w) for w in report["weights"].split(", ")]
        assert abs(weights[0] - 1.0 / 9.0) < 1e-15
        assert all(abs(w - 2.0 / 9.0) < 1e-15 for w in weights[1:])
        assert float(report["reconstruction_error"]) < 1e-12
        assert report["lp_hull_verdict"] == "member"

    def test_tangent_cone_report(self, capsys):
        code, out, _ = run_cli(capsys, "tangent-cone", "--k", "4")
        report = report_dict(out)
        assert code == 0
        assert report["contact_angle"].startswith("4*pi/7")
        assert report["tangent_status"] == "pass"
        assert float(report["tangent_step"]) > 1e-6

    def test_edge_report_not_edge(self, capsys):
        code, out, _ = run_cli(capsys, "edge", "--k", "2",
                               "--alpha", "0", "--beta", "2.2")
        report = report_dict(out)
        assert code == 0
        assert report["verdict"] == "not_edge"
        assert report["midpoint_verdict"] == "interior"

    def test_edge_report_edge_with_exact_angle(self, capsys):
        code, out, _ = run_cli(capsys, "edge", "--k", "2",
                               "--alpha", "0", "--beta", "2*pi/5")
        report = report_dict(out)
        assert code == 0
        assert report["verdict"] == "edge"
        assert float(report["certificate_margin"]) > 1e-7
        assert float(report["arc_length"]) == pytest.approx(2 * math.pi / 5,
                                                            abs=1e-15)

    def test_membership_curve_point(self, capsys):
        code, out, _ = run_cli(capsys, "membership", "--k", "2",
                               "--theta", "1.0")
        report = report_dict(out)
        assert code == 0
        assert report["membership"] == "member"
        assert abs(float(report["smallest_eigenvalue"])) < 1e-8

    def test_membership_origin(self, capsys):
        code, out, _ = run_cli(capsys, "membership", "--k", "2",
                               "--point", "0,0,0,0")
        report = report_dict(out)
        assert code == 0
        assert report["membership"] == "member"
        assert float(report["smallest_eigenvalue"]) == 1.0

    def test_identical_invocations_identical_reports(self, capsys):
        _, first, _ = run_cli(capsys, "facets", "--k", "3")
        _, second, _ = run_cli(capsys, "facets", "--k", "3")
        assert strip_wall_time(first) == strip_wall_time(second)


class TestPlotData:
    def test_curve_csv(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "plot-data", "curve", "--k", "3",
                               "--out", str(out_file), "--samples", "100")
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "theta,x1,x2,x3"
        assert len(lines) == 101
        row = [float(x) for x in lines[1].split(",")]
        assert row == [0.0, 1.0, 1.0, 1.0]

    def test_f_graphs_crossings_match_roots(self, capsys, tmp_path):
        out_file = tmp_path / "f.csv"
        code, _, _ = run_cli(capsys, "plot-data", "f-graphs", "--k", "3",
                             "--out", str(out_file), "--samples", "2000")
        assert code == 0
        data = np.loadtxt(out_file, delimiter=",", skiprows=1)
        theta, f0 = data[:, 0], data[:, 1]
        crossings = theta[:-1][f0[:-1] * f0[1:] < 0]
        expected = [math.pi / 3, 2 * math.pi / 5, 4 * math.pi / 5]
        assert len(crossings) == 3
        for got, want in zip(crossings, expected):
            assert abs(got - want) < 2 * math.pi / 2000

    def test_facet_projection_sections(self, capsys, tmp_path):
        out_file = tmp_path / "proj.csv"
        code, _, _ = run_cli(capsys, "plot-data", "facet-projection", "--k", "3",
                             "--out", str(out_file), "--samples", "50")
        assert code == 0
        text = out_file.read_text()
        assert "# section: cosine-curve" in text
        assert "# section: outer-simplex-vertices" in text
        assert "# section: inner-simplex-vertices" in text
        sections = text.split("# section: ")
        inner = [s for s in sections if s.startswith("inner-simplex-vertices")][0]
        rows = [r for r in inner.strip().splitlines()[2:] if r]
        assert len(rows) == 3  # three vertices for k=3
        first = [float(x) for x in rows[0].split(",")]
        assert first[0] == pytest.approx(math.pi / 2)  # distinguished node

    def test_threshold_sweep_transitions_once(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "plot-data", "threshold-sweep", "--k", "2",
                             "--out", str(out_file), "--samples", "500")
        assert code == 0
        data = np.loadtxt(out_file, delimiter=",", skiprows=1)
        flags = data[:, 2]
        assert flags[0] == 0.0 and flags[-1] == 1.0
        switches = np.sum(np.abs(np.diff(flags)) > 0)
        assert switches == 1
        # The flip happens at the closed-form arc length, within grid spacing.
        flip_arc = data[np.argmax(flags > 0), 1]
        grid_step = data[1, 1] - data[0, 1]
        assert abs(flip_arc - 2 * math.pi / 3) < 2 * grid_step

    def test_17_digit_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        run_cli(capsys, "plot-data", "curve", "--k", "2",
                "--out", str(out_file), "--samples", "7")
        lines = out_file.read_text().splitlines()[1:]
        thetas = np.linspace(0.0, 2 * math.pi, 7)
        for line, theta in zip(lines, thetas):
            printed = float(line.split(",")[0])
            assert printed == theta  # 17 significant digits round-trip

    def test_unwritable_path_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "plot-data", "curve", "--k", "2",
                               "--out", str(tmp_path / "no" / "dir.csv"))
        assert code == 2
        assert err.startswith("error:")
