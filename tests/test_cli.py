"""End-to-end CLI runs: artifacts, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import wcard
from peterweyl import InvalidInputError, get_ring
from peterweyl.cli import (EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, load_schedule,
                           main)
from peterweyl.fusion import MAX_WORK_S
from peterweyl.groups import TorusModel

# the one message of a work guard's refusal
ABOVE_THE_WORK_LIMIT = f"s, above the limit of {MAX_WORK_S} s"


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def haar_measure_doc(group="Z"):
    return {"group": group, "density": [{"irrep": "0", "matrix": [[1.0]]}]}


def mix_measure_doc():
    return {
        "group": "Z",
        "atoms": [{"element": "z:1,0", "weight": 0.5}],
        "density": [{"irrep": "0", "matrix": [[0.5]]}],
    }


class TestFolner:
    def test_su2_ratio_table(self, tmp_path):
        out = tmp_path / "folner.csv"
        assert main(["folner", "--ring", "SU2", "--S", "1", "--steps", "30",
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["step", "wcard", "boundary_wcard", "ratio"]
        assert len(rows) == 30
        ratios = [float(r[3]) for r in rows]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        for step, row in enumerate(rows, start=1):
            m = step  # schedule step n uses spins {0..n}
            wcard = sum((k + 1) ** 2 for k in range(m + 1))
            bcard = (m + 1) ** 2 + (m + 2) ** 2
            assert row[:3] == [str(step), str(wcard), str(bcard)]
            assert float(row[3]) == bcard / wcard

    def test_ratio_is_the_correctly_rounded_quotient(self, tmp_path):
        # steps {n} for n = 10**8 + k: |F|_w = (n + 1)**2 is above 2**53, so
        # dividing the floats of the two cardinalities rounds twice
        labels = range(100_000_000, 100_000_020)
        schedule = write_json(tmp_path / "s.json", {"sets": [[str(n)] for n in labels]})
        out = tmp_path / "folner.csv"
        assert main(["folner", "--ring", "SU2", "--S", "1", "--schedule", schedule,
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert [row[1:3] for row in rows] == [
            [str((n + 1) ** 2), str(n ** 2 + (n + 1) ** 2 + (n + 2) ** 2)] for n in labels]
        assert [row[3] for row in rows] == [repr(int(b) / int(w)) for _, w, b, _ in rows]
        assert any(row[3] != repr(float(np.float64(int(row[2])) / np.float64(int(row[1]))))
                   for row in rows)

    def test_schedule_file_with_non_integer_components_is_rejected(self, tmp_path, capsys):
        schedule = write_json(tmp_path / "bad.json",
                              {"sets": [[[0, 0], [1.5, 0]], [[True, 0], [0, -0.9]]]})
        out = tmp_path / "folner.csv"
        assert main(["folner", "--ring", "Z^d:2", "--S", "1,0;0,1", "--schedule", schedule,
                     "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("ring, S", [("Z", "1"), ("Z^d:2", "1,0;0,1"), ("SU2", "1"),
                                         ("finite:D4", "twodim")])
    @pytest.mark.parametrize("sets", [5, [5], ["12", ["3"]], [{"1": 0}], "12", {"a": [1]}],
                             ids=["sets-number", "set-number", "set-string", "set-dict",
                                  "sets-string", "sets-dict"])
    def test_schedule_sets_must_be_lists_of_lists(self, tmp_path, capsys, ring, S, sets):
        schedule = write_json(tmp_path / "s.json", {"sets": sets})
        out = tmp_path / "folner.csv"
        assert main(["folner", "--ring", ring, "--S", S, "--schedule", schedule,
                     "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("ring, S, steps", [("Z^d:3", "1,0,0;0,1,0;0,0,1", "1000000"),
                                                ("SU2", "1", "3100000"),
                                                ("Z^d:3", "1,0,0;0,1,0;0,0,1", "49")])
    def test_oversized_default_schedule_is_refused_at_once(self, tmp_path, capsys,
                                                           ring, S, steps):
        # Z^3 boxes to radius 10^6 hold 8e18 labels; SU2 spins to 3.1e6 have
        # |F|_w = 9.93e18, above 2**63 - 1; Z^3 boxes to radius 49 fused with
        # three generators and their conjugates give 2 * 3 * 99**3 * 3 =
        # 17,465,382 entries, above 2**24 (radius 48 still runs)
        out = tmp_path / "folner.csv"
        start = time.perf_counter()
        code = main(["folner", "--ring", ring, "--S", S, "--steps", steps, "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_VALIDATION and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_z2_boxes(self, tmp_path):
        out = tmp_path / "folner.csv"
        assert main(["folner", "--ring", "Z^d:2", "--S", "1,0;0,1", "--steps", "5",
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        for step, row in enumerate(rows, start=1):
            assert float(row[3]) < 4 / (2 * step + 1)

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["folner", "--ring", "SU2", "--S", "1", "--steps", "12",
                         "--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_stdout_output(self, capsys):
        assert main(["folner", "--ring", "finite:S3", "--S", "std", "--steps", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "step,wcard,boundary_wcard,ratio"
        assert lines[1] == "1,6,0,0.0"


class TestWiener:
    def test_haar_energy_series(self, tmp_path):
        measure = write_json(tmp_path / "haar.json", haar_measure_doc())
        out = tmp_path / "series.csv"
        assert main(["wiener", "--kind", "energy", "--measure", measure,
                     "--steps", "100", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["step", "wcard", "value_re", "value_im"]
        assert len(rows) == 100
        for step, row in enumerate(rows, start=1):
            assert int(row[1]) == 2 * step + 1
            assert abs(float(row[2]) - 1 / (2 * step + 1)) < 1e-15
            assert float(row[3]) == 0.0

    def test_atom_series_with_ground_truth(self, tmp_path):
        measure = write_json(tmp_path / "mix.json", mix_measure_doc())
        out = tmp_path / "series.csv"
        assert main(["wiener", "--kind", "atom", "--measure", measure, "--at", "z:1,0",
                     "--steps", "40", "--ground-truth", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["step", "wcard", "value_re", "value_im", "target", "abs_error"]
        for step, row in enumerate(rows, start=1):
            assert float(row[4]) == 0.5
            assert abs(float(row[5]) - 0.5 / (2 * step + 1)) < 1e-13

    def test_schedule_file(self, tmp_path):
        measure = write_json(tmp_path / "haar.json", haar_measure_doc())
        schedule = write_json(
            tmp_path / "schedule.json",
            {"description": "two prefixes", "sets": [["0", "1", "-1"], ["0", "1", "-1", "2", "-2"]]},
        )
        out = tmp_path / "series.csv"
        assert main(["wiener", "--kind", "energy", "--measure", measure,
                     "--schedule", schedule, "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert [int(r[1]) for r in rows] == [3, 5]

    def test_malformed_json_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"group": "Z", "atoms": [}')
        assert main(["wiener", "--kind", "energy", "--measure", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_field_is_validation_error(self, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", {"group": "Z", "atoms": [{"weight": 1.0}]})
        assert main(["wiener", "--kind", "energy", "--measure", bad]) == EXIT_VALIDATION
        assert "atoms[0]" in capsys.readouterr().err

    def test_unknown_ring_is_validation_error(self, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", {"group": "SO3"})
        assert main(["wiener", "--kind", "energy", "--measure", bad]) == EXIT_VALIDATION
        assert "SO3" in capsys.readouterr().err

    def test_zero_mass_rejected(self, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"group": "Z"})
        assert main(["wiener", "--kind", "energy", "--measure", bad]) == EXIT_VALIDATION

    def test_atom_kind_needs_at(self, tmp_path):
        measure = write_json(tmp_path / "mix.json", mix_measure_doc())
        assert main(["wiener", "--kind", "atom", "--measure", measure]) == EXIT_VALIDATION

    def test_non_finite_element_is_validation_error(self, tmp_path, capsys):
        doc = {"group": "Z", "atoms": [{"element": "z:nan,0", "weight": 0.5}],
               "density": [{"irrep": "0", "matrix": [[0.5]]}]}
        measure = write_json(tmp_path / "nan.json", doc)
        out = tmp_path / "series.csv"
        assert main(["wiener", "--kind", "energy", "--measure", measure,
                     "--steps", "5", "--out", str(out)]) == EXIT_VALIDATION
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_weight_is_numeric_error_without_output(self, tmp_path, capsys):
        doc = {"group": "Z", "atoms": [{"element": "z:1,0", "weight": 1e308}]}
        measure = write_json(tmp_path / "huge.json", doc)
        out = tmp_path / "series.csv"
        assert main(["wiener", "--kind", "energy", "--measure", measure,
                     "--steps", "5", "--out", str(out)]) == EXIT_NUMERIC
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("atom, matrix", [(True, [[0.5]]), (0.5, [[False]]),
                                              (0.5, [[[True, 0]]])],
                             ids=["bool-weight", "bool-entry", "bool-in-pair"])
    def test_bool_numbers_are_validation_errors(self, tmp_path, capsys, atom, matrix):
        measure = write_json(tmp_path / "m.json", {
            "group": "Z", "atoms": [{"element": "z:1,0", "weight": atom}],
            "density": [{"irrep": "0", "matrix": matrix}]})
        out = tmp_path / "series.csv"
        assert main(["wiener", "--kind", "char", "--measure", measure, "--steps", "3",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_long_circle_energy_series_runs(self, tmp_path):
        # three atoms, boxes to radius 40000: the energy average is
        # sum_ij w_i w_j D_n(t_i - t_j) / (2n + 1), D_n the Dirichlet kernel
        angles, weights = np.array([0.3, 2.0, -1.2]), np.array([0.3, 0.2, 0.25])
        measure = write_json(tmp_path / "circle.json", {"group": "Z", "atoms": [
            {"element": f"z:{math.cos(t)!r},{math.sin(t)!r}", "weight": w}
            for t, w in zip(angles, weights)]})
        out = tmp_path / "series.csv"
        assert main(["wiener", "--kind", "energy", "--measure", measure,
                     "--steps", "40000", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 40000
        t = angles[:, None] - angles[None, :]
        for n in (1, 39999, 40000):
            with np.errstate(invalid="ignore", divide="ignore"):
                kernel = np.where(t == 0, 2 * n + 1, np.sin((n + 0.5) * t) / np.sin(t / 2))
            expected = float(weights @ kernel @ weights) / (2 * n + 1)
            assert abs(float(rows[n - 1][2]) - expected) <= 1e-12


class TestErgodic:
    def test_group_rep_failing_tolerance_exits_numeric(self, tmp_path):
        spec = write_json(
            tmp_path / "rep.json",
            {"ring": "dualgroup:Z^d:1", "generators": [[[[-1.0, 0.0]]]]},
        )
        out = tmp_path / "report.csv"
        assert main(["ergodic", "--rep", "group", "--spec", spec, "--steps", "3",
                     "--out", str(out)]) == EXIT_NUMERIC
        header, rows = read_csv(out)
        assert header == ["step", "wcard", "dist_to_projection", "commutant_residue"]
        assert len(rows) == 3

    def test_group_rep_loose_tolerance_passes(self, tmp_path):
        spec = write_json(
            tmp_path / "rep.json",
            {"ring": "dualgroup:Z^d:1", "generators": [[[[-1.0, 0.0]]]]},
        )
        assert main(["ergodic", "--rep", "group", "--spec", spec, "--steps", "3",
                     "--tol", "1.0", "--out", str(tmp_path / "r.csv")]) == EXIT_OK

    def test_an_overflowing_generator_is_refused_in_one_line(self, tmp_path):
        # its unitarity check overflows to inf: no numpy warning on stderr
        spec = write_json(tmp_path / "rep.json",
                          {"ring": "dualgroup:Z^d:1", "generators": [[[1e308]]]})
        result = subprocess.run(
            [sys.executable, "-m", "peterweyl", "ergodic", "--rep", "group", "--spec", spec],
            capture_output=True, text=True,
        )
        assert result.returncode == EXIT_VALIDATION
        assert result.stderr == "error: generator images must be unitary\n"

    def test_tolerance_env_var(self, tmp_path, monkeypatch):
        # the tolerance is --tol alone: an environment variable is not read
        spec = write_json(
            tmp_path / "rep.json",
            {"ring": "dualgroup:Z^d:1", "generators": [[[[-1.0, 0.0]]]]},
        )
        argv = ["ergodic", "--rep", "group", "--spec", spec, "--steps", "3", "--out"]
        code = main(argv + [str(tmp_path / "plain.csv")])
        monkeypatch.setenv("PETERWEYL_TOL", "abc")
        assert main(argv + [str(tmp_path / "env.csv")]) == code == EXIT_NUMERIC
        assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1e-3"])
    def test_bad_tolerance_env_var_is_validation_error(self, tmp_path, monkeypatch, capsys,
                                                       value):
        # a bad tolerance is refused where it is read, on --tol; in PETERWEYL_TOL it is ignored
        spec = write_json(tmp_path / "rep.json", {"ring": "Z", "points": ["z:1,0"]})
        argv = ["ergodic", "--rep", "point", "--spec", spec]
        assert main(argv + ["--out", str(tmp_path / "plain.csv")]) == EXIT_OK
        monkeypatch.setenv("PETERWEYL_TOL", value)
        assert main(argv + ["--out", str(tmp_path / "env.csv")]) == EXIT_OK
        assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        capsys.readouterr()
        refused = EXIT_USAGE if value == "abc" else EXIT_VALIDATION
        assert main(argv + [f"--tol={value}"]) == refused
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("usage: " if value == "abc" else "error: tolerance must be") in err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-2"])
    def test_bad_tolerance_option_is_validation_error(self, tmp_path, capsys, value):
        # the tolerance is checked before the spec is read
        assert main(["ergodic", "--rep", "point", "--spec", str(tmp_path / "missing.json"),
                     "--steps", "2", "--tol", value]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "tolerance must be finite and positive" in err and "Traceback" not in err

    def test_a_gns_state_of_huge_entries_keeps_its_support(self, tmp_path, capsys):
        # the state is scaled by its largest entry before it is summed, so
        # its sum cannot overflow: the same table as the state [1] * 6
        for name, state in [("huge", [0.5] * 4 + [1e308] * 2), ("ones", [1] * 6)]:
            spec = write_json(tmp_path / f"{name}.json", {"ring": "finite:S3", "state": state})
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["ergodic", "--rep", "gns", "--spec", spec, "--steps", "3",
                             "--out", str(tmp_path / f"{name}.csv")]) == EXIT_OK
            assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        assert (tmp_path / "huge.csv").read_bytes() == (tmp_path / "ones.csv").read_bytes()

    def test_gns_full_dual_is_exact(self, tmp_path):
        spec = write_json(
            tmp_path / "rep.json",
            {"ring": "finite:S3", "state": [1, 0, 0, 0, 0, 0]},
        )
        out = tmp_path / "report.csv"
        assert main(["ergodic", "--rep", "gns", "--spec", spec, "--steps", "1",
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0][2]) <= 1e-12

    def test_point_rep_on_circle(self, tmp_path):
        spec = write_json(tmp_path / "rep.json", {"ring": "Z", "points": ["z:1,0", "z:-1,0"]})
        out = tmp_path / "report.csv"
        assert main(["ergodic", "--rep", "point", "--spec", spec, "--steps", "20",
                     "--tol", "0.1", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert abs(float(rows[-1][2]) - 1 / 41) < 1e-12

    def test_missing_ring_field(self, tmp_path):
        spec = write_json(tmp_path / "rep.json", {"points": ["z:1,0"]})
        assert main(["ergodic", "--rep", "point", "--spec", spec]) == EXIT_VALIDATION

    @pytest.mark.parametrize("rep, doc", [
        ("group", {"ring": "dualgroup:Z^d:1", "generators": 5}),
        ("group", {"ring": "dualgroup:Z^d:1", "generators": [5]}),
        ("point", {"ring": "Z", "points": 5}),
        ("point", {"ring": "finite:S3", "points": [True]}),
        ("gns", {"ring": "finite:S3", "state": [1, 1, 1, 1, 1, "a"]}),
        ("gns", {"ring": "finite:S3", "state": [1, 0, 0, 0, 0, False]}),
        ("group", {"ring": "dualgroup:Z^d:1", "generators": [[[True]]]}),
    ], ids=["generators-number", "generator-number", "points-number", "point-bool",
            "state-string", "state-bool", "generator-bool"])
    def test_malformed_rep_spec_is_validation_error(self, tmp_path, capsys, rep, doc):
        spec = write_json(tmp_path / "rep.json", doc)
        out = tmp_path / "report.csv"
        assert main(["ergodic", "--rep", rep, "--spec", spec, "--out", str(out)]) \
            == EXIT_VALIDATION
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_large_point_rep_matches_dirichlet_kernel(self, tmp_path):
        # 4000 points e^{it}: the check reads the diagonal only, so no
        # 4000 x 4000 operator is built; each step's average at a point is
        # the Dirichlet kernel D_n(t) / (2n + 1)
        points = [f"z:{math.cos(t)!r},{math.sin(t)!r}" for t in range(4000)]
        spec = write_json(tmp_path / "rep.json", {"ring": "Z", "points": points})
        out = tmp_path / "ergodic.csv"
        assert main(["ergodic", "--rep", "point", "--spec", spec, "--tol", "100",
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        n = np.arange(1, 21)[:, None]
        t = np.arange(4000)[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            kernel = np.where(t == 0, 2 * n + 1.0, np.sin((n + 0.5) * t) / np.sin(t / 2))
        oracle = np.linalg.norm(kernel / (2 * n + 1) - (t == 0), axis=1)
        assert [int(r[1]) for r in rows] == (2 * n[:, 0] + 1).tolist()
        assert np.max(np.abs([float(r[2]) for r in rows] - oracle)) < 1e-12
        assert all(float(r[3]) == 0.0 for r in rows)

    def test_long_gns_run(self, tmp_path):
        spec = write_json(tmp_path / "rep.json", {"ring": "finite:D4", "state": [1] * 8})
        out = tmp_path / "ergodic.csv"
        assert main(["ergodic", "--rep", "gns", "--spec", spec, "--steps", "50000",
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 50000 and float(rows[-1][2]) == 0.0


class TestFusionCommand:
    def test_s3_std_squared(self, capsys):
        assert main(["fusion", "--ring", "finite:S3", "--a", "std", "--b", "std"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "label,multiplicity,dim",
            "trivial,1,1",
            "sign,1,1",
            "std,1,2",
        ]

    def test_su2_clebsch_gordan(self, capsys):
        assert main(["fusion", "--ring", "SU2", "--a", "2", "--b", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["label,multiplicity,dim", "1,1,2", "3,1,4", "5,1,6"]
        # a literal of SU2 has one component
        for a in ("2;4", "2,", ";2"):
            assert main(["fusion", "--ring", "SU2", "--a", a, "--b", "3"]) == EXIT_VALIDATION
            assert capsys.readouterr().err == f"error: {a!r} is not a label of ring SU2\n"


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobenius"]) == EXIT_USAGE

    def test_bad_choice(self, tmp_path):
        measure = write_json(tmp_path / "m.json", haar_measure_doc())
        assert main(["wiener", "--kind", "mean", "--measure", measure]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert main(["folner", "--ring", "SU2"]) == EXIT_USAGE

    def test_bad_schedule_name(self, tmp_path, monkeypatch, capsys):
        # --schedule names a file, "spins" too: refused while absent, read once written
        monkeypatch.chdir(tmp_path)
        argv = ["wiener", "--kind", "energy", "--measure", write_json(tmp_path / "m.json",
                haar_measure_doc()), "--schedule", "spins", "--out", "s.csv"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: cannot read spins: ")
        write_json(tmp_path / "spins", {"sets": [["0"], ["0", "1", "-1"]]})
        assert main(argv) == EXIT_OK
        assert [row[1] for row in read_csv(tmp_path / "s.csv")[1]] == ["1", "3"]

    @pytest.mark.parametrize("argv", [
        ["fusion", "--ring", "Z", "--a", "1", "--b", "2", "--steps", "3"],
        ["fusion", "--ring", "Z", "--a", "1", "--b", "2", "--tol", "1"],
        ["folner", "--ring", "Z", "--S", "1", "--tol", "1"],
        ["wiener", "--kind", "energy", "--measure", "m.json", "--tol", "1"],
        # a call has one output, --out
        ["fusion", "--ring", "Z", "--a", "1", "--b", "2", "--gnuplot", "x"],
        ["folner", "--ring", "Z", "--S", "1", "--gnuplot", "x"],
        ["wiener", "--kind", "energy", "--measure", "m.json", "--gnuplot", "x"],
        ["ergodic", "--rep", "point", "--spec", "rep.json", "--gnuplot", "x"],
        ["wiener", "--kind", "energy", "--measure", "m.json", "--emit-canonical", "x"],
        # the ring comes from the input file
        ["wiener", "--ring", "Z", "--kind", "energy", "--measure", "m.json"],
        ["ergodic", "--ring", "Z", "--rep", "point", "--spec", "rep.json"],
        # a schedule file and the default schedule's steps exclude each other
        ["folner", "--ring", "Z", "--S", "1", "--schedule", "s.json", "--steps", "-7"],
        ["wiener", "--kind", "energy", "--measure", "m.json", "--steps", "20",
         "--schedule", "s.json"],
        ["ergodic", "--rep", "point", "--spec", "rep.json", "--schedule", "s.json",
         "--steps", "5"],
    ], ids=["fusion-steps", "fusion-tol", "folner-tol", "wiener-tol", "fusion-gnuplot",
            "folner-gnuplot", "wiener-gnuplot", "ergodic-gnuplot", "wiener-emit-canonical",
            "wiener-ring", "ergodic-ring", "folner-schedule-steps", "wiener-steps-schedule",
            "ergodic-schedule-steps"])
    def test_an_option_the_subcommand_does_not_read_is_a_usage_error(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage: peterweyl")


_ENERGY = ["wiener", "--kind", "energy", "--measure", "in.json"]


@pytest.mark.parametrize("argv, doc", [
    (_ENERGY + ["--schedule", "boxes"], haar_measure_doc("Z")),
    (_ENERGY + ["--schedule", "full"], {"group": "finite:S3", "atoms": [
        {"element": "g:0", "weight": 1}]}),
    (_ENERGY + ["--schedule", "default"], haar_measure_doc("Z")),
    (_ENERGY, {"group": "Z^d:2", "atoms": [{"element": ["z:1,0", "z:0,1"], "weight": 1}]}),
    (_ENERGY, {"group": "finite:S3", "atoms": [{"element": 4, "weight": 1}]}),
], ids=["schedule-boxes", "schedule-full", "schedule-default", "torus-atom-list",
        "finite-atom-int"])
def test_a_second_spelling_of_an_input_is_refused(tmp_path, monkeypatch, capsys, argv, doc):
    # a schedule is a file or the ring's default, an element is its literal;
    # "spins" is test_bad_schedule_name's case
    monkeypatch.chdir(tmp_path)  # no file here is named like a schedule
    write_json(tmp_path / "in.json", doc)
    assert main(argv + ["--out", "out.csv"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("ring_id, literal", [
    ("Z", " 3"), ("Z", "+3"), ("Z", "3_0"), ("Z", "\u0663"), ("Z", "3,"), ("Z", ";3"),
    ("Z^d:2", "7,,8"), ("Z^d:2", " w:1,2"), ("Z^d:2", "w:w:1,2"), ("Z", "1" + "0" * 19),
    ("Z", ""),
])
@pytest.mark.parametrize("where", ["--S", "--a", "schedule", "density"])
def test_a_spelling_outside_the_grammar_is_refused_in_one_line(tmp_path, monkeypatch, capsys,
                                                                 ring_id, literal, where):
    # ';' splits --S, so there ";3" is refused at its empty first label
    monkeypatch.chdir(tmp_path)
    good = "0" if ring_id == "Z" else "0,0"
    refused = literal.split(";")[0] if where == "--S" else literal
    argv = {
        "--S": ["folner", "--ring", ring_id, "--S", f"{good};{literal}", "--steps", "2"],
        "--a": ["fusion", "--ring", ring_id, "--a", literal, "--b", good],
        "schedule": ["folner", "--ring", ring_id, "--S", good, "--schedule",
                     write_json(tmp_path / "s.json", {"sets": [[good], [good, literal]]})],
        "density": ["wiener", "--kind", "energy", "--steps", "2", "--measure", write_json(
            tmp_path / "m.json", {"group": ring_id, "density": [
                {"irrep": good, "matrix": [[1]]}, {"irrep": literal, "matrix": [[0.5]]}]})],
    }[where]
    assert main(argv + ["--out", "out.csv"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {refused!r} is not a label of ring {ring_id}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["folner", "--ring", "Z", "--S", "1", "--schedule"],
    ["wiener", "--kind", "energy", "--measure"],
    ["ergodic", "--rep", "point", "--spec"],
], ids=["schedule", "measure", "spec"])
def test_json_nested_past_the_recursion_limit_is_refused_in_one_line(tmp_path, capsys, argv):
    # written as text: json.dump cannot write it
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out.csv"
    assert main(argv + [str(deep), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: invalid JSON in {deep}: nested too deeply\n"
    assert not out.exists()


class TestUnwritableOutput:
    """The one output, --out: a path that cannot be opened is a validation
    error, not a traceback, and a refused call leaves the path as it was."""

    def _refused(self, capsys, argv):
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_out(self, tmp_path, capsys, target):
        out = tmp_path if target == "directory" else tmp_path / "no" / "x.csv"
        self._refused(capsys, ["folner", "--ring", "Z", "--S", "1", "--steps", "3",
                               "--out", str(out)])

    @pytest.mark.parametrize("refusal", ["work-guard", "non-finite"])
    def test_a_refused_call_leaves_an_existing_table_as_it_was(self, tmp_path, capsys, refusal):
        out = tmp_path / "f.csv"
        out.write_text("a user's data\n")
        if refusal == "work-guard":
            code = main(["folner", "--ring", "SU2", "--S", "1", "--steps", "3000000",
                         "--out", str(out)])
            assert code == EXIT_VALIDATION and ABOVE_THE_WORK_LIMIT in capsys.readouterr().err
        else:
            measure = write_json(tmp_path / "huge.json", {
                "group": "Z", "atoms": [{"element": "z:1,0", "weight": 1e308}]})
            code = main(["wiener", "--kind", "energy", "--measure", measure, "--steps", "5",
                         "--out", str(out)])
            assert code == EXIT_NUMERIC and "non-finite value" in capsys.readouterr().err
        assert out.read_text() == "a user's data\n"

    def test_an_existing_longer_table_is_replaced_whole(self, tmp_path):
        out, fresh = tmp_path / "old.csv", tmp_path / "new.csv"
        out.write_text("x" * 10_000)
        argv = ["folner", "--ring", "Z", "--S", "1", "--steps", "3"]
        assert main(argv + ["--out", str(out)]) == main(argv + ["--out", str(fresh)]) == EXIT_OK
        assert out.read_bytes() == fresh.read_bytes()

    def test_a_non_finite_table_writes_no_output(self, tmp_path):
        # the energy of two atoms of weight 1e308 overflows to nan: one line
        # on stderr, no numpy warning, and no output written
        measure = write_json(tmp_path / "huge.json", {"group": "Z", "atoms": [
            {"element": "z:1,0", "weight": 1e308}, {"element": "z:0,1", "weight": 1e308}]})
        out = tmp_path / "s.csv"
        result = subprocess.run(
            [sys.executable, "-m", "peterweyl", "wiener", "--kind", "energy", "--measure",
             measure, "--steps", "5", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == EXIT_NUMERIC
        assert result.stderr == "numeric consistency failure: non-finite value nan in the output\n"
        assert not out.exists()


class TestWorkGuards:
    """Inputs that pass every size guard but would run for hours exit 2 at once."""

    def _refused(self, capsys, out, argv):
        start = time.perf_counter()
        code = main(argv + ["--out", str(out)])
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and not out.exists()
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_su2_characters_of_a_label_near_the_bound(self, tmp_path, capsys):
        # a valid label: its dimension squared still fits in int64
        schedule = write_json(tmp_path / "s.json", {"sets": [[0, 3_037_000_000]]})
        measure = write_json(tmp_path / "m.json", {
            "group": "SU2", "atoms": [{"element": "q:0.6,0.8,0,0", "weight": 1},
                                      {"element": "q:0,1,0,0", "weight": 1}],
            "density": [{"irrep": "0", "matrix": [[1]]}]})
        spec = write_json(tmp_path / "rep.json", {"ring": "SU2", "points": ["q:0.6,0.8,0,0"]})
        out = tmp_path / "out.csv"
        for kind in ("atom", "energy", "char"):
            err = self._refused(capsys, out, ["wiener", "--kind", kind, "--measure", measure,
                                              "--at", "q:1,0,0,0", "--schedule", schedule])
            assert "SU(2) characters up to label 3037000000" in err and ABOVE_THE_WORK_LIMIT in err
        self._refused(capsys, out, ["ergodic", "--rep", "point", "--spec", spec,
                                    "--schedule", schedule])
        self._refused(capsys, out, ["ergodic", "--rep", "point", "--spec", spec,
                                    "--labels", "3037000000"])

    def test_long_prefix_schedule_of_a_boundary_pass(self, tmp_path, capsys):
        err = self._refused(capsys, tmp_path / "folner.csv",
                            ["folner", "--ring", "SU2", "--S", "1", "--steps", "3000000"])
        assert "3000000 prefix steps" in err and ABOVE_THE_WORK_LIMIT in err

    def test_energy_of_many_circle_atoms(self, tmp_path, capsys, monkeypatch):
        # 20,000 atoms: the distinct check alone has 2e8 pairs, refused
        # before any pair is compared or multiplied
        def unreachable(*args):
            raise AssertionError("an atom pair was visited")

        monkeypatch.setattr(TorusModel, "distance", unreachable)
        monkeypatch.setattr(TorusModel, "multiply", unreachable)
        angles = np.linspace(0.0, 6.0, 20_000)
        measure = write_json(tmp_path / "m.json", {"group": "Z", "atoms": [
            {"element": f"z:{math.cos(t)!r},{math.sin(t)!r}", "weight": 1.0} for t in angles]})
        err = self._refused(capsys, tmp_path / "energy.csv",
                            ["wiener", "--kind", "energy", "--measure", measure])
        assert "20000 atoms" in err and ABOVE_THE_WORK_LIMIT in err

    def test_long_cesaro_sums_of_a_point_rep(self, tmp_path):
        # spins 1..42000 at four points: one pass over the character table,
        # checked against Weyl characters chi_n = sin((n+1) phi) / sin(phi)
        # at the points' half-angles phi = acos(Re a)
        cos_half = [1.0, 0.5, 0.0, 0.6]
        spec = write_json(tmp_path / "rep.json", {"ring": "SU2", "points": [
            "q:1,0,0,0", "q:0.5,0.5,0.5,0.5", "q:0,1,0,0", "q:0.6,0,0.8,0"]})
        out = tmp_path / "ergodic.csv"
        assert main(["ergodic", "--rep", "point", "--spec", spec, "--steps", "42000",
                     "--tol", "1e-8", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 42000
        dims = np.arange(1, 42002, dtype=float)
        phi = np.arccos(cos_half)[:, None]
        with np.errstate(invalid="ignore"):
            chi = np.where(phi > 0, np.sin(dims * phi) / np.sin(phi), dims)
        invariant = [1.0, 0.0, 0.0, 0.0]  # chi_1 = 2 only at the identity
        for step in (1, 2, 1000, 41999, 42000):
            d = dims[:step + 1]
            averages = [math.fsum(d * c[:step + 1]) / math.fsum(d * d) for c in chi]
            assert abs(float(rows[step - 1][2]) - math.dist(averages, invariant)) <= 1e-12

    def test_term_table_guard_refuses_before_any_character(self, tmp_path, capsys, monkeypatch):
        # 4000 points on boxes to radius 2200: 4401 labels x 4000 points
        # would take in 1.76e7 entries, above 2**24
        def unreachable(*args):
            raise AssertionError("a character was evaluated")

        monkeypatch.setattr(TorusModel, "characters", unreachable)
        points = [f"z:{math.cos(t)!r},{math.sin(t)!r}" for t in range(4000)]
        spec = write_json(tmp_path / "rep.json", {"ring": "Z", "points": points})
        err = self._refused(capsys, tmp_path / "ergodic.csv",
                            ["ergodic", "--rep", "point", "--spec", spec, "--steps", "2200"])
        assert "17604000 entries" in err and "2**24" in err


class TestEntryPoints:
    def test_main_directly(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["folner", "--ring", "Z", "--S", "1", "--steps", "4",
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert [float(r[3]) for r in rows] == [2 / 3, 2 / 5, 2 / 7, 2 / 9]

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "peterweyl", "fusion", "--ring", "Z",
             "--a", "2", "--b", "-5"],
            capture_output=True, text=True,
        )
        assert result.returncode == EXIT_OK
        assert result.stdout.strip().splitlines() == ["label,multiplicity,dim", "-3,1,1"]
        # a long table reaches stdout whole when the process exits
        argv = ["folner", "--ring", "SU2", "--S", "1", "--steps", "20000"]
        result = subprocess.run([sys.executable, "-m", "peterweyl", *argv, "--out", "-"],
                                capture_output=True)
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert result.returncode == EXIT_OK and result.stdout == out.read_bytes()


# schedule-file fuzzing: literals that are often labels of the ring, mixed
# with values of every other JSON kind, in sets that may not be lists
_SMALL = st.integers(-4, 4)
_VALID_LITERALS = {
    "Z": _SMALL | _SMALL.map(str) | _SMALL.map("w:{}".format),
    "Z^d:2": st.lists(_SMALL, min_size=2, max_size=2)
    | st.tuples(_SMALL, _SMALL).map(lambda t: "w:{},{}".format(*t))
    | st.tuples(_SMALL, _SMALL).map(lambda t: " {} ;{}".format(*t)),
    "SU2": st.integers(0, 6) | st.integers(0, 6).map(str),
    "finite:D4": st.integers(0, 4) | st.sampled_from(["trivial", "sign_s", "twodim", "3"]),
}
_JUNK = st.recursive(
    st.none() | st.integers() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["w:", "w:1", "w:1,2,3", ";", "1,", "+3", "3_0", "-0", "2**70",
                       "\ud800,1", "1\x00,2", "\x00"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=5,
)
_FUZZ_S = {"Z": "1", "Z^d:2": "1,0;0,1", "SU2": "1", "finite:D4": "twodim"}


def _fuzz_sets(ring_id):
    valid = _VALID_LITERALS[ring_id]
    clean = st.lists(st.lists(valid, min_size=1, max_size=5), min_size=1, max_size=4)
    dirty = st.lists(st.lists(valid | _JUNK, max_size=5) | _JUNK, max_size=4)
    return clean | dirty | _JUNK


@pytest.mark.parametrize("ring_id", sorted(_VALID_LITERALS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_schedule_file_loads_as_its_literals_or_is_rejected(tmp_path_factory, ring_id, data):
    ring = get_ring(ring_id)
    sets = data.draw(_fuzz_sets(ring_id))
    path = write_json(tmp_path_factory.mktemp("schedule") / "s.json", {"sets": sets})
    try:
        schedule = load_schedule(ring, path, 20)
    except InvalidInputError:
        return
    expected = tuple(frozenset(ring.parse_label(literal) for literal in F) for F in sets)
    assert schedule.sets == expected
    assert schedule.weighted_cardinalities.tolist() == [
        wcard(F, ring) for F in expected]


@pytest.mark.parametrize("ring_id", sorted(_VALID_LITERALS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_folner_on_a_fuzzed_schedule_file_exits_cleanly(tmp_path_factory, ring_id, data):
    work = tmp_path_factory.mktemp("folner")
    path = write_json(work / "s.json", {"sets": data.draw(_fuzz_sets(ring_id))})
    out = work / "folner.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["folner", "--ring", ring_id, "--S", _FUZZ_S[ring_id], "--schedule", path,
                     "--out", str(out)])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC)
    assert "Traceback" not in err.getvalue()
    assert out.exists() == (code == EXIT_OK)
