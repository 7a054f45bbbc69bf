import argparse
import contextlib
import errno
import io
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geodd
from geodd import cli, subspaces, verify
from geodd.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OBSTRUCTION,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_compensator,
    parse_problem,
    problem_dict,
)
from geodd.errors import DimensionMismatch, InvalidInput, ParseError, ShapeError
from geodd.generate import InstanceSpec, generate_instance
from geodd.lattice import PlantSystem
from geodd.synthesis import Compensator
from geodd.verify import default_lambdas, transfer_samples
from helpers import failing_dgesdd


def write_problem(path, sys_):
    path.write_text(json.dumps(problem_dict(sys_)))
    return str(path)


def minimal_problem_dict():
    return {
        "dims": {"n": 1, "m": 1, "q": 1, "p": 1, "r": 1},
        "time_domain": "continuous",
        "A": [[-1.0]], "B": [[1.0]], "H": [[0.0]],
        "C": [[1.0]], "D_y": [[0.0]], "G_y": [[0.0]],
        "E": [[1.0]], "D_z": [[0.0]], "G_z": [[0.0]],
    }


class TestProblemFiles:
    def test_minimal_scalar_file(self, tmp_path):
        p = tmp_path / "min.json"
        p.write_text(json.dumps(minimal_problem_dict()))
        sys_, tol = parse_problem(str(p))
        assert sys_.n == 1 and sys_.A[0, 0] == -1.0

    def test_round_trip_normalized(self, tmp_path, scalar_channel_plant):
        p = tmp_path / "scalar_channel_plant.json"
        write_problem(p, scalar_channel_plant)
        sys_, _ = parse_problem(str(p))
        assert problem_dict(sys_) == problem_dict(scalar_channel_plant)
        for name in ("A", "B", "H", "C", "D_y", "G_y", "E", "D_z", "G_z"):
            assert np.array_equal(getattr(sys_, name), getattr(scalar_channel_plant, name))

    def test_flat_row_major_arrays_accepted(self, tmp_path):
        d = minimal_problem_dict()
        d["dims"] = {"n": 2, "m": 1, "q": 1, "p": 1, "r": 1}
        d.update({"A": [0.0, 1.0, 0.0, 0.0], "B": [[0.0], [1.0]],
                  "H": [[0.0], [0.0]], "C": [[1.0, 0.0]], "E": [[1.0, 0.0]]})
        p = tmp_path / "flat.json"
        p.write_text(json.dumps(d))
        sys_, _ = parse_problem(str(p))
        assert sys_.A[0, 1] == 1.0 and sys_.A[1, 0] == 0.0

    def test_shape_mismatch_names_matrix(self, tmp_path):
        d = minimal_problem_dict()
        d["B"] = [[1.0, 2.0], [3.0, 4.0]]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(ShapeError) as err:
            parse_problem(str(p))
        assert "B" in str(err.value)

    def test_invalid_json_reports_location(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            parse_problem(str(p))


class TestToleranceOverrides:
    @pytest.mark.parametrize("field,value", [
        ("rank_rel", "x"), ("rank_rel", None), ("rank_rel", [1]), ("rank_rel", "1e-9"),
        ("rank_rel", 2.0), ("rank_rel", 0), ("angle", float("nan")),
        ("residual", float("inf")), ("angle", -1.0), ("residual", True),
    ])
    def test_bad_override_exits_1_naming_the_field(self, tmp_path, capsys,
                                                    field, value):
        d = dict(minimal_problem_dict(), tolerances={field: value})
        p = tmp_path / "p.json"
        p.write_text(json.dumps(d))
        out = tmp_path / "r.json"
        assert main(["analyze", "--input", str(p), "--output", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: tolerances.{field} ")
        assert not out.exists()
        with pytest.raises(ParseError, match=f"tolerances.{field}"):
            parse_problem(str(p))

    def test_numeric_overrides_accepted(self, tmp_path):
        d = dict(minimal_problem_dict(),
                 tolerances={"rank_rel": 1e-9, "angle": 1e-7, "residual": 1})
        p = tmp_path / "p.json"
        p.write_text(json.dumps(d))
        _, tol = parse_problem(str(p))
        assert (tol.rank_rel, tol.angle, tol.residual) == (1e-9, 1e-7, 1.0)
        assert type(tol.residual) is float

    @pytest.mark.parametrize("value", [True, False, 1.0, -1, "1"])
    def test_dims_must_be_nonnegative_integers(self, tmp_path, capsys, value):
        d = minimal_problem_dict()
        d["dims"]["n"] = value
        p = tmp_path / "p.json"
        p.write_text(json.dumps(d))
        assert main(["analyze", "--input", str(p)]) == EXIT_USAGE
        assert "dims.n must be a nonnegative integer" in capsys.readouterr().err


class TestCommands:
    def test_solve_scalar_channel_plant(self, tmp_path, scalar_channel_plant, capsys):
        plant = write_problem(tmp_path / "scalar_channel_plant.json", scalar_channel_plant)
        out = tmp_path / "result.json"
        code = main(["solve", "--input", plant, "--problem", "p1",
                     "--output", str(out)])
        assert code == EXIT_OK
        result = json.loads(out.read_text())
        assert result["verdict"] == "solved"
        assert result["certificate"]["valid"]
        assert result["max_sample_norm"] <= 1e-8
        assert abs(result["K"][0][0]) < 10

    def test_verify_after_solve(self, tmp_path, scalar_channel_plant):
        plant = write_problem(tmp_path / "scalar_channel_plant.json", scalar_channel_plant)
        out = tmp_path / "result.json"
        assert main(["solve", "--input", plant, "--output", str(out)]) == EXIT_OK
        verdict = tmp_path / "verify.json"
        code = main(["verify", "--input", plant, "--compensator", str(out),
                     "--output", str(verdict)])
        assert code == EXIT_OK
        assert json.loads(verdict.read_text())["verdict"] == "verified"

    def test_verify_compensator_built_on_another_pair(self, tmp_path, scalar_channel_plant):
        # the published compensator fails the certificate on (V*, S*), so
        # verify certifies it on the hull instead; so is its order-1
        # realization, which no pair certificate can take
        plant = write_problem(tmp_path / "scalar_channel_plant.json", scalar_channel_plant)
        published = {"A_c": [[0.0, 0.0], [0.0, 0.0]], "B_c": [[0.0], [10.0]],
                     "C_c": [[0.0, 3.0]], "D_c": [[6.0]]}
        reduced = {"A_c": [[0.0]], "B_c": [[10.0]], "C_c": [[3.0]], "D_c": [[6.0]]}
        for given in (published, reduced):
            comp = tmp_path / "comp.json"
            comp.write_text(json.dumps(given))
            verdict = tmp_path / "verify.json"
            code = main(["verify", "--input", plant, "--compensator", str(comp),
                         "--output", str(verdict)])
            assert code == EXIT_OK
            result = json.loads(verdict.read_text())
            assert result["verdict"] == "verified"
            assert result["certificate"]["valid"]

    def test_solve_and_verify_plant_the_hull_rejected(self, tmp_path):
        from geodd.generate import InstanceSpec, generate_instance

        sys_ = generate_instance(InstanceSpec(seed=10, n=6, m=2, q=1, p=2, r=1,
                                              time_domain="discrete"))
        plant = write_problem(tmp_path / "d6.json", sys_)
        out = tmp_path / "result.json"
        assert main(["solve", "--input", plant, "--problem", "p1",
                     "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["certificate"]["valid"]
        code = main(["verify", "--input", plant, "--problem", "p1",
                     "--compensator", str(out), "--output", str(tmp_path / "v.json")])
        assert code == EXIT_OK

    def test_obstructed_plant_exits_3(self, tmp_path, singular_family_plant, capsys):
        plant = write_problem(tmp_path / "singular_family_plant.json", singular_family_plant)
        out = tmp_path / "result.json"
        code = main(["solve", "--input", plant, "--problem", "p1",
                     "--output", str(out)])
        assert code == EXIT_OBSTRUCTION
        result = json.loads(out.read_text())
        assert result["verdict"] == "well_posedness_obstruction"
        assert "well-posedness" in capsys.readouterr().err

    def test_numerical_failure_exits_4_from_analyze_and_solve(
            self, tmp_path, float_singular_witness_plant, capsys):
        plant = write_problem(tmp_path / "witness.json", float_singular_witness_plant)
        out = tmp_path / "result.json"
        for problem in ("p1", "p2"):
            for command in ("analyze", "solve"):
                code = main([command, "--input", plant, "--problem", problem,
                             "--output", str(out)])
                assert code == EXIT_NUMERICAL
                report = json.loads(out.read_text())["report"]
                assert report["overall"] == "numerical_failure"
        assert "Traceback" not in capsys.readouterr().err

    def test_solve_labels_a_numerical_failure(
            self, tmp_path, float_singular_witness_plant, capsys):
        # the analysis refuses the plant without proving an obstruction: the
        # result file and stderr name a numerical failure, not infeasibility
        plant = write_problem(tmp_path / "witness.json", float_singular_witness_plant)
        out = tmp_path / "result.json"
        for problem in ("p1", "p2"):
            code = main(["solve", "--input", plant, "--problem", problem,
                         "--output", str(out)])
            assert code == EXIT_NUMERICAL
            assert json.loads(out.read_text())["verdict"] == "numerical_failure"
            err = capsys.readouterr().err
            assert err == "numerical failure: analysis verdict: numerical_failure\n"

    def test_analyze_trivially_decoupled(self, tmp_path, capsys):
        d = minimal_problem_dict()
        p = tmp_path / "min.json"
        p.write_text(json.dumps(d))
        out = tmp_path / "report.json"
        code = main(["analyze", "--input", str(p), "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())["report"]
        assert report["overall"] == "solvable"
        assert all(v["passed"] for v in report["conditions"].values())

    def test_lapack_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "min.json"
        p.write_text(json.dumps(minimal_problem_dict()))
        monkeypatch.setattr(subspaces, "dgesdd", failing_dgesdd)
        code = main(["analyze", "--input", str(p), "--output", str(tmp_path / "r.json")])
        assert code == EXIT_NUMERICAL
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

    def test_failed_verification_exits_2(self, tmp_path, scalar_channel_plant):
        plant = write_problem(tmp_path / "scalar_channel_plant.json", scalar_channel_plant)
        # a compensator for the wrong plant: destabilize nothing, couple z
        comp = tmp_path / "comp.json"
        comp.write_text(json.dumps({
            "A_c": [[0.0, 0.0], [0.0, 0.0]], "B_c": [[0.0], [0.0]],
            "C_c": [[0.0, 0.0]], "D_c": [[0.0]]}))
        code = main(["verify", "--input", plant, "--problem", "p2",
                     "--compensator", str(comp), "--output",
                     str(tmp_path / "v.json")])
        assert code == EXIT_INFEASIBLE  # decoupled but not stable

    def test_usage_errors_exit_1(self, tmp_path):
        assert main(["solve"]) == EXIT_USAGE
        assert main(["frobnicate", "--input", "x"]) == EXIT_USAGE
        missing = tmp_path / "missing.json"
        assert main(["solve", "--input", str(missing)]) == EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [
        ("--samples", "0"), ("--samples", "-3"), ("--samples", "2.5"),
        ("--tol", "0"), ("--tol", "1"), ("--tol", "-0.5"), ("--tol", "nan"),
        ("--tol", "inf"),
    ])
    def test_out_of_range_option_is_a_usage_error(self, tmp_path, capsys,
                                                  scalar_channel_plant, flag,
                                                  value):
        # a run is a function of its files: no command takes a sample count
        # or a rank threshold, in range or not
        plant = write_problem(tmp_path / "p.json", scalar_channel_plant)
        out = tmp_path / "r.json"
        for command in (["analyze"], ["solve"], ["verify", "--compensator", plant]):
            code = main(command + ["--input", plant, "--output", str(out),
                                   f"{flag}={value}"])
            assert code == EXIT_USAGE
            assert (f"unrecognized arguments: {flag}={value}"
                    in capsys.readouterr().err)
        assert not out.exists()

    def test_plant_file_rank_threshold_reaches_solve_and_verify(
            self, tmp_path, monkeypatch, scalar_channel_plant):
        # the plant file's tolerances block is the one place a run's rank
        # threshold is set
        plant = tmp_path / "p.json"
        plant.write_text(json.dumps(dict(problem_dict(scalar_channel_plant),
                                         tolerances={"rank_rel": 1e-9})))
        seen = []
        solve_certified, certify = cli.solve_certified, cli.certify_decoupled

        def spy_solve(sys_, problem, tol):
            seen.append(("solve_certified", tol.rank_rel))
            return solve_certified(sys_, problem, tol)

        def spy_certify(cl, tol, **kwargs):
            seen.append(("certify_decoupled", tol.rank_rel))
            return certify(cl, tol, **kwargs)

        monkeypatch.setattr(cli, "solve_certified", spy_solve)
        monkeypatch.setattr(cli, "certify_decoupled", spy_certify)
        out = tmp_path / "r.json"
        assert main(["solve", "--input", str(plant), "--output", str(out)]) == EXIT_OK
        assert main(["verify", "--input", str(plant), "--compensator", str(out),
                     "--output", str(tmp_path / "v.json")]) == EXIT_OK
        assert seen == [("solve_certified", 1e-9), ("certify_decoupled", 1e-9)]

    def test_unknown_flag_rejected(self, tmp_path, scalar_channel_plant):
        plant = write_problem(tmp_path / "scalar_channel_plant.json", scalar_channel_plant)
        assert main(["solve", "--input", plant, "--frobnicate"]) == EXIT_USAGE

    def test_analyze_takes_no_samples(self, tmp_path, capsys, scalar_channel_plant):
        # analyze samples nothing, and the K it selects is a function of the
        # plant: a --samples or --seed there is an unknown flag
        plant = write_problem(tmp_path / "p.json", scalar_channel_plant)
        out = tmp_path / "r.json"
        for flag in ("--samples", "--seed"):
            assert main(["analyze", "--input", plant, flag, "5",
                         "--output", str(out)]) == EXIT_USAGE
            assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
            assert not out.exists()
        assert main(["analyze", "--input", plant, "--output", str(out)]) == EXIT_OK
        assert set(json.loads(out.read_text())) == {"command", "report"}

    def test_analyze_p2_unstabilizable_plant_exits_2(self, tmp_path,
                                                     scalar_channel_plant):
        # the plant's unstable mode is unreachable, so the stabilized
        # problem fails its precondition
        plant = write_problem(tmp_path / "p.json", scalar_channel_plant)
        out = tmp_path / "r.json"
        code = main(["analyze", "--input", plant, "--problem", "p2",
                     "--output", str(out)])
        assert code == EXIT_INFEASIBLE
        report = json.loads(out.read_text())["report"]
        assert report["overall"] == "infeasible(precondition)"

    def test_solve_p2_and_verify(self, tmp_path):
        from geodd.generate import InstanceSpec, generate_instance
        from geodd.synthesis import analyze_p2

        sys_ = generate_instance(InstanceSpec(seed=2, n=4, m=2, q=1, p=2, r=1))
        assert analyze_p2(sys_).solvable
        plant = write_problem(tmp_path / "g.json", sys_)
        out = tmp_path / "result.json"
        assert main(["solve", "--input", plant, "--problem", "p2",
                     "--output", str(out)]) == EXIT_OK
        result = json.loads(out.read_text())
        assert result["stable"] and result["certificate"]["valid"]
        code = main(["verify", "--input", plant, "--problem", "p2",
                     "--compensator", str(out),
                     "--output", str(tmp_path / "v.json")])
        assert code == EXIT_OK

    def test_deterministic_output(self, tmp_path, scalar_channel_plant):
        plant = write_problem(tmp_path / "scalar_channel_plant.json", scalar_channel_plant)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["solve", "--input", plant, "--output", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_result_files_have_no_seed_key(self, tmp_path, scalar_channel_plant,
                                           singular_family_plant):
        plant = write_problem(tmp_path / "p.json", scalar_channel_plant)
        out, verified = tmp_path / "r.json", tmp_path / "v.json"
        assert main(["solve", "--input", plant, "--output", str(out)]) == EXIT_OK
        assert set(json.loads(out.read_text())) == {
            "command", "verdict", "report", "compensator", "K", "F", "G",
            "certificate", "max_sample_norm", "stable"}
        assert main(["verify", "--input", plant, "--compensator", str(out),
                     "--output", str(verified)]) == EXIT_OK
        assert set(json.loads(verified.read_text())) == {
            "command", "verdict", "certificate", "max_sample_norm", "stable",
            "spectrum"}
        obstructed = write_problem(tmp_path / "o.json", singular_family_plant)
        assert main(["solve", "--input", obstructed,
                     "--output", str(out)]) == EXIT_OBSTRUCTION
        assert set(json.loads(out.read_text())) == {"command", "verdict", "report"}

    def test_console_entry_point(self, tmp_path, scalar_channel_plant):
        plant = write_problem(tmp_path / "scalar_channel_plant.json", scalar_channel_plant)
        # The child needs the package on its path however pytest found it.
        path = [str(Path(geodd.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run(
            [sys.executable, "-m", "geodd.cli", "analyze", "--input", plant],
            capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["report"]["overall"] == "solvable"


@pytest.fixture
def solved_plant(tmp_path):
    """A generated n = 4 plant file and the result file of solving it."""
    sys_ = generate_instance(InstanceSpec(seed=2, n=4, m=2, q=1, p=2, r=1))
    plant = write_problem(tmp_path / "g.json", sys_)
    out = tmp_path / "result.json"
    assert main(["solve", "--input", plant, "--output", str(out)]) == EXIT_OK
    return plant, json.loads(out.read_text())


class TestCompensatorFiles:
    def _verify(self, tmp_path, plant, text):
        comp = tmp_path / "comp.json"
        comp.write_text(text)
        return main(["verify", "--input", plant, "--compensator", str(comp),
                     "--output", str(tmp_path / "v.json")])

    def test_nan_entry_exits_1(self, tmp_path, solved_plant, capsys):
        plant, result = solved_plant
        result["compensator"]["A_c"][0][0] = float("nan")
        assert self._verify(tmp_path, plant, json.dumps(result)) == EXIT_USAGE
        assert "A_c" in capsys.readouterr().err

    def test_non_numeric_matrix_exits_1(self, tmp_path, solved_plant, capsys):
        plant, result = solved_plant
        result["compensator"]["A_c"] = "abc"
        assert self._verify(tmp_path, plant, json.dumps(result)) == EXIT_USAGE
        assert "A_c" in capsys.readouterr().err

    def test_top_level_list_exits_1(self, tmp_path, solved_plant, capsys):
        plant, result = solved_plant
        assert self._verify(tmp_path, plant,
                            json.dumps([result["compensator"]])) == EXIT_USAGE
        assert "JSON object" in capsys.readouterr().err

    def test_ports_not_matching_the_plant_exit_1(self, tmp_path, solved_plant, capsys):
        # a self-consistent compensator for a plant with one more output
        plant, result = solved_plant
        comp = result["compensator"]
        comp["B_c"] = [row + [0.0] for row in comp["B_c"]]
        comp["D_c"] = [row + [0.0] for row in comp["D_c"]]
        assert self._verify(tmp_path, plant, json.dumps(comp)) == EXIT_USAGE
        assert "B_c" in capsys.readouterr().err

    def test_inconsistent_shapes_name_the_matrix(self, tmp_path, solved_plant):
        _, result = solved_plant
        comp = dict(result["compensator"], D_c=[[1.0]])
        path = tmp_path / "comp.json"
        path.write_text(json.dumps(comp))
        with pytest.raises(ShapeError, match="D_c"):
            parse_compensator(str(path))
        path.write_text(json.dumps(dict(comp, C_c=[1.0, 2.0])))
        with pytest.raises(ShapeError, match="C_c"):
            parse_compensator(str(path))
        # [] is a matrix with no rows, where D_c has one
        path.write_text(json.dumps(dict(comp, C_c=[])))
        with pytest.raises(ShapeError, match=r"C_c has shape \(0, 4\), expected \(1, 4\)"):
            parse_compensator(str(path))
        path.write_text(json.dumps(dict(comp, A_c=[])))
        with pytest.raises(ShapeError, match=r"B_c has shape \(4, 2\), expected \(0, 2\)"):
            parse_compensator(str(path))

    @pytest.mark.parametrize("problem", ["p1", "p2"])
    def test_zero_order_compensator_round_trip(self, tmp_path, problem):
        # A static plant (n = 0) gets a static compensator, written with
        # "A_c": [], "B_c": [] and "C_c": [[]]. A plant without inputs
        # (m = 0) gets "C_c": [] and "D_c": [], read as 0 x order and
        # 0 x p; with n = 0 too, the file holds no width, and verify takes
        # the plant's p. verify reads each back and verifies it.
        plants = [
            ({"n": 0, "m": 1, "q": 1, "p": 1, "r": 1}, "continuous",
             {"C": [[]], "D_y": [[0.5]], "G_y": [[1.0]], "E": [[]], "D_z": [[1.0]],
              "G_z": [[1.0]]},
             ([], [], [[]]), ((0, 0), (0, 1), (1, 0), (1, 1))),
            ({"n": 1, "m": 0, "q": 1, "p": 1, "r": 1}, "discrete",
             {"A": [[0.5]], "B": [[]], "H": [[1.0]], "C": [[1.0]], "D_y": [[]],
              "G_y": [[1.0]], "E": [[0.0]], "D_z": [[]], "G_z": [[0.0]]},
             None, ((1, 1), (1, 1), (0, 1), (0, 1))),
            ({"n": 0, "m": 0, "q": 0, "p": 1, "r": 0}, "continuous",
             {"C": [[]], "D_y": [[]], "G_y": [[]]},
             ([], [], []), ((0, 0), (0, 0), (0, 0), (0, 0))),
        ]
        for dims, domain, given, written, shapes in plants:
            plant = tmp_path / "static.json"
            mats = {name: [] for name in ("A", "B", "H", "C", "D_y", "G_y", "E", "D_z", "G_z")}
            plant.write_text(json.dumps({"dims": dims, "time_domain": domain,
                                         **mats, **given}))
            out = tmp_path / "s.json"
            assert main(["solve", "--input", str(plant), "--problem", problem,
                         "--output", str(out)]) == EXIT_OK
            comp = json.loads(out.read_text())["compensator"]
            if written is not None:
                assert (comp["A_c"], comp["B_c"], comp["C_c"]) == written
            if dims["m"] == 0:
                assert comp["C_c"] == comp["D_c"] == []
            parsed = parse_compensator(str(out))
            assert (parsed.A_c.shape, parsed.B_c.shape, parsed.C_c.shape,
                    parsed.D_c.shape) == shapes
            assert main(["verify", "--input", str(plant), "--problem", problem,
                         "--compensator", str(out),
                         "--output", str(tmp_path / "v.json")]) == EXIT_OK
            assert json.loads((tmp_path / "v.json").read_text())["verdict"] == "verified"


PLANT_MATRICES = ("A", "B", "H", "C", "D_y", "G_y", "E", "D_z", "G_z")

# An edit of the minimal plant file, and the message it exits 1 with ("{path}"
# stands for the file's path); a message ending in ":" is a prefix, the rest
# being numpy's words.
PLANT_ERRORS = [
    ({"A": [[float("nan")]]}, "matrix A contains non-finite entries"),
    ({"G_z": [[float("inf")]]}, "matrix G_z contains non-finite entries"),
    ({"C": [float("-inf")]}, "matrix C contains non-finite entries"),
    ({"A": [["x"]]}, "matrix A is not numeric:"),
    ({"B": [[1.0], [2.0]]}, "matrix B has shape (2, 1), expected (1, 1)"),
    ({"E": [1.0, 2.0]}, "matrix E has 2 entries, expected 1x1"),
    ({"H": [[[1.0]]]}, "matrix H has shape (1, 1, 1), expected (1, 1)"),
    ({"dims": {"n": -1, "m": 1, "q": 1, "p": 1, "r": 1}},
     "{path}: dims.n must be a nonnegative integer"),
    ({"dims": {"n": 1, "m": 1, "q": 1, "p": 1}}, "{path}: dims.r must be a nonnegative integer"),
    ({"dims": {"n": 2, "m": 1, "q": 1, "p": 1, "r": 1}},
     "matrix A has shape (1, 1), expected (2, 2)"),
    ({"time_domain": "sampled"}, "{path}: time_domain must be continuous or discrete"),
]

# A compensator file for the minimal plant, and the message it exits 1 with.
COMPENSATOR_ERRORS = [
    ({"A_c": [[float("nan")]], "B_c": [[1.0]], "C_c": [[1.0]], "D_c": [[0.0]]},
     "matrix A_c contains non-finite entries"),
    ({"A_c": "abc", "B_c": [[1.0]], "C_c": [[1.0]], "D_c": [[0.0]]},
     "matrix A_c is not numeric:"),
    ({"A_c": [1.0], "B_c": [[1.0]], "C_c": [[1.0]], "D_c": [[0.0]]},
     "matrix A_c must be a list of rows, got 1-D"),
    ({"A_c": [[1.0]], "B_c": [[1.0], [2.0]], "C_c": [[1.0]], "D_c": [[0.0]]},
     "matrix B_c has shape (2, 1), expected (1, 1)"),
    ({"A_c": [[1.0]], "B_c": [[1.0]], "C_c": [[1.0]], "D_c": [[0.0, 1.0]]},
     "matrix D_c has shape (1, 2), expected (1, 1)"),
    ({"A_c": [[1.0]], "B_c": [[1.0]], "C_c": [[1.0, 2.0]], "D_c": [[0.0]]},
     "matrix C_c has shape (1, 2), expected (1, 1)"),
    ({"A_c": [[1.0]], "B_c": [[1.0]], "C_c": [[1.0]]},
     "{path}: missing compensator matrix 'D_c'"),
    ({"A_c": [[1.0]], "B_c": [[1.0, 0.0]], "C_c": [[1.0]], "D_c": [[0.0, 0.0]]},
     "matrix B_c has 2 columns, the plant has p = 1 measurements"),
]


def _expect_exit_1(argv, path, message, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    message = message.format(path=path)
    assert captured.out == ""
    if message.endswith(":"):
        assert captured.err.startswith(f"error: {message} ")
    else:
        assert captured.err == f"error: {message}\n"


class TestValidateOnce:
    """`parse_problem` and `parse_compensator` check each matrix once and
    hand it to the plant or compensator without a second copy or check:
    every file error keeps its message and exit code, the matrices are
    read-only and separate, and the public constructors still check."""

    @pytest.mark.parametrize("edit, message", PLANT_ERRORS)
    def test_plant_file_errors_exit_1(self, tmp_path, capsys, edit, message):
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(dict(minimal_problem_dict(), **edit)))
        _expect_exit_1(["analyze", "--input", str(path)], path, message, capsys)

    @pytest.mark.parametrize("comp, message", COMPENSATOR_ERRORS)
    def test_compensator_file_errors_exit_1(self, tmp_path, capsys, comp, message):
        plant = tmp_path / "plant.json"
        plant.write_text(json.dumps(minimal_problem_dict()))
        path = tmp_path / "comp.json"
        path.write_text(json.dumps(comp))
        _expect_exit_1(["verify", "--input", str(plant), "--compensator", str(path)],
                       path, message, capsys)

    def test_parsed_matrices_are_read_only_and_separate(self, tmp_path, solved_plant):
        plant_path, result = solved_plant
        data = json.loads(Path(plant_path).read_text())
        # one matrix flat and row-major, reshaped by the parser
        data["B"] = [x for row in data["B"] for x in row]
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(data))
        sys_, _ = parse_problem(str(flat))
        comp = parse_compensator(str(tmp_path / "result.json"))
        for obj, names, built in (
                (sys_, PLANT_MATRICES,
                 PlantSystem(**{name: getattr(sys_, name) for name in PLANT_MATRICES},
                             time_domain=sys_.time_domain)),
                (comp, ("A_c", "B_c", "C_c", "D_c"),
                 Compensator(*(result["compensator"][name]
                               for name in ("A_c", "B_c", "C_c", "D_c"))))):
            mats = [getattr(obj, name) for name in names]
            assert not any(M.flags.writeable for M in mats)
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(mats, 2))
            with pytest.raises(ValueError):
                mats[0][0, 0] = 1.0
            # the arrays a public constructor builds, bit for bit and in layout
            for name, M in zip(names, mats):
                ref = getattr(built, name)
                assert M.dtype == ref.dtype and M.shape == ref.shape
                assert M.flags.c_contiguous and M.tobytes() == ref.tobytes()

    def test_public_constructors_still_check(self):
        good = {name: np.array(minimal_problem_dict()[name], dtype=float)
                for name in PLANT_MATRICES}
        with pytest.raises(InvalidInput, match="^A contains non-finite entries$"):
            PlantSystem(**dict(good, A=[[np.nan]]))
        with pytest.raises(DimensionMismatch, match=r"^B has shape \(2, 1\), expected \(1, 1\)$"):
            PlantSystem(**dict(good, B=[[1.0], [2.0]]))
        with pytest.raises(InvalidInput, match="unknown time domain"):
            PlantSystem(**good, time_domain="sampled")
        plant = PlantSystem(**good)
        assert good["A"].flags.writeable and not np.shares_memory(plant.A, good["A"])
        mats = [np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]])]
        with pytest.raises(InvalidInput, match="^B_c contains non-finite entries$"):
            Compensator(mats[0], [[np.inf]], mats[2], mats[3])
        with pytest.raises(DimensionMismatch, match="^inconsistent compensator dimensions$"):
            Compensator(mats[0], [[1.0], [2.0]], mats[2], mats[3])
        with pytest.raises(DimensionMismatch, match="^D_c must be m x p$"):
            Compensator(*mats[:3], [[0.0, 0.0]])
        comp = Compensator(*mats)
        assert mats[0].flags.writeable and not np.shares_memory(comp.A_c, mats[0])


# A file that `parse_problem` and `parse_compensator` must refuse with a
# ParseError (exit 1), and the words its message gives after the path.
UNREADABLE = {
    "directory": "cannot read: Is a directory",
    "utf16": "not UTF-8 text: invalid start byte at byte 0",
    "broken": "invalid JSON at line 1: Expecting property name",
}


def _unreadable(tmp_path, kind) -> str:
    path = tmp_path / f"{kind}.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "utf16":
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    else:
        path.write_text("{not json")
    return str(path)


class TestUnreadableFiles:
    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_exit_1_naming_the_file(self, tmp_path, capsys, command, kind):
        bad = _unreadable(tmp_path, kind)
        if command == "analyze":
            argv = ["analyze", "--input", bad]
        else:
            plant = tmp_path / "plant.json"
            plant.write_text(json.dumps(minimal_problem_dict()))
            argv = ["verify", "--input", str(plant), "--compensator", bad]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: {UNREADABLE[kind]}")


# An --output that cannot be written, and the reason the message gives.
UNWRITABLE = {
    "missing directory": "No such file or directory",
    "directory": "Is a directory",
    "/dev/full": "No space left on device",
}


def _command_argv(tmp_path, command):
    """argv of `command` on the minimal plant, without --output; verify
    reads a static compensator."""
    plant = tmp_path / "plant.json"
    plant.write_text(json.dumps(minimal_problem_dict()))
    argv = [command, "--input", str(plant)]
    if command == "verify":
        comp = tmp_path / "comp.json"
        comp.write_text(json.dumps({"A_c": [], "B_c": [], "C_c": [[]],
                                    "D_c": [[0.0]]}))
        argv += ["--compensator", str(comp)]
    return argv


class TestUnwritableOutputs:
    @pytest.mark.parametrize("kind", sorted(UNWRITABLE))
    @pytest.mark.parametrize("command", ["analyze", "solve", "verify"])
    def test_exit_1_naming_the_file(self, tmp_path, capsys, command, kind):
        if kind == "/dev/full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            out = "/dev/full"
        elif kind == "directory":
            out = str(tmp_path)
        else:
            out = str(tmp_path / "missing" / "out.json")
        assert main(_command_argv(tmp_path, command) + ["--output", out]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: cannot write: {UNWRITABLE[kind]}\n"


def _count_work(monkeypatch):
    """Count close_loop and certify_decoupled calls, and `_eigvals` calls
    on the A^ of a loop that close_loop built, wherever they are bound."""
    import geodd.cli as cli_mod
    import geodd.geometry as geometry
    import geodd.synthesis as synthesis
    import geodd.verify as verify

    counts = Counter()
    loops = []
    close_loop, certify, eigvals = (synthesis.close_loop, verify.certify_decoupled,
                                    subspaces._eigvals)

    def counting_close_loop(*args, **kwargs):
        counts["close_loop"] += 1
        cl = close_loop(*args, **kwargs)
        loops.append(cl.A_hat)
        return cl

    def counting_certify(*args, **kwargs):
        counts["certify_decoupled"] += 1
        return certify(*args, **kwargs)

    def counting_eigvals(a):
        counts["eigvals"] += any(a is A_hat for A_hat in loops)
        return eigvals(a)

    for module in (synthesis, cli_mod):
        monkeypatch.setattr(module, "close_loop", counting_close_loop)
    for module in (verify, synthesis, cli_mod):
        monkeypatch.setattr(module, "certify_decoupled", counting_certify)
    for module in (subspaces, geometry, verify):
        monkeypatch.setattr(module, "_eigvals", counting_eigvals)
    return counts


class TestWorkPerCommand:
    @pytest.mark.parametrize("problem", ["p1", "p2"])
    def test_one_loop_certificate_and_spectrum(self, tmp_path, monkeypatch, problem):
        sys_ = generate_instance(InstanceSpec(seed=2, n=4, m=2, q=1, p=2, r=1))
        plant = write_problem(tmp_path / "g.json", sys_)
        out = tmp_path / "result.json"
        counts = _count_work(monkeypatch)
        assert main(["solve", "--input", plant, "--problem", problem,
                     "--output", str(out)]) == EXIT_OK
        assert counts == {"close_loop": 1, "certify_decoupled": 1, "eigvals": 1}
        counts.clear()
        assert main(["verify", "--input", plant, "--problem", problem,
                     "--compensator", str(out),
                     "--output", str(tmp_path / "v.json")]) == EXIT_OK
        assert counts == {"close_loop": 1, "certify_decoupled": 1, "eigvals": 1}

    def test_hull_fallback_takes_a_second_certificate(self, tmp_path, monkeypatch,
                                                      scalar_channel_plant):
        plant = write_problem(tmp_path / "p.json", scalar_channel_plant)
        comp = tmp_path / "comp.json"
        comp.write_text(json.dumps({"A_c": [[0.0, 0.0], [0.0, 0.0]],
                                    "B_c": [[0.0], [10.0]],
                                    "C_c": [[0.0, 3.0]], "D_c": [[6.0]]}))
        counts = _count_work(monkeypatch)
        assert main(["verify", "--input", plant, "--compensator", str(comp),
                     "--output", str(tmp_path / "v.json")]) == EXIT_OK
        assert counts == {"close_loop": 1, "certify_decoupled": 2, "eigvals": 1}

    def test_samples_are_solved_in_one_stack(self, monkeypatch):
        sys_ = generate_instance(InstanceSpec(seed=2, n=4, m=2, q=1, p=2, r=1))
        comp, _ = geodd.solve(sys_, "p1")
        cl = geodd.close_loop(sys_, comp)
        lambdas = default_lambdas(cl, 3 * 64 + 5)
        batches = []
        solve = verify._stack_solve

        def recording_solve(a, b):
            batches.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(verify, "_stack_solve", recording_solve)
        assert transfer_samples(cl, lambdas) <= 1e-8
        assert batches == [(3 * 64 + 5, cl.order, cl.order)]


def _reference_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1.7976931348623157e308,
               float("nan"), float("inf"), float("-inf")]
FLOATS = st.floats() | st.sampled_from(FLOAT_EDGES)
LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70)
          | FLOATS | FLOATS.map(np.float64)
          | st.text() | st.sampled_from(["", "\"quoted\"", "back\\slash", "tab\tline\n",
                                        "\x00\x1f\x7f", "é ü ß", "日本語", "\U0001f600",
                                        "\ud800"]))
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# Float matrices: equal rows (the one-repr path), ragged, empty and edge
# rows, rows that mix in np.float64, and 1-tuples of floats (fallbacks).
FLOAT_MATRICES = (
    st.integers(1, 4).flatmap(lambda cols: st.lists(
        st.lists(FINITE_FLOATS, min_size=cols, max_size=cols), min_size=1, max_size=4))
    | st.lists(st.lists(FINITE_FLOATS, min_size=1, max_size=4), min_size=1, max_size=4)
    | st.lists(st.lists(FLOATS, max_size=4), min_size=1, max_size=4)
    | st.lists(st.lists(FLOATS | FLOATS.map(np.float64), min_size=1, max_size=4),
               min_size=1, max_size=4)
    | st.lists(FLOATS.map(lambda x: (x,)), min_size=1, max_size=4)
    | FLOATS.map(lambda x: (x,)))
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.lists(FLOATS, max_size=5)
                      | FLOAT_MATRICES
                      | st.dictionaries(st.text(max_size=6), children, max_size=5)),
    max_leaves=40)


class TestResultWriter:
    """A result file is `json.dumps(payload, indent=2, sort_keys=True)` and
    a newline, byte for byte, although `_write_result` does not call it."""

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(JSON_VALUES)
    def test_text_equals_json_dumps(self, obj):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_result(None, obj)
        assert out.getvalue() == _reference_text(obj) + "\n"

    def test_edge_values(self, tmp_path):
        obj = {"empty": [[], {}, ()], "rows": [FLOAT_EDGES, [np.float64(0.5), 0.25]],
               "ints": [0, -1, 2**80, True, False, None], "z": "\u00e9\n",
               "nested": {"b": {"a": []}, "a": ({}, [{}])}}
        path = tmp_path / "r.json"
        cli._write_result(str(path), obj)
        assert path.read_bytes() == (_reference_text(obj) + "\n").encode()
        assert "np.float64" not in path.read_text()

    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(FLOAT_MATRICES)
    def test_float_matrices_equal_json_dumps(self, obj):
        assert cli._json_text(obj) == _reference_text(obj)

    @pytest.mark.parametrize("obj", [
        [0.5, -0.0, 5e-324, 1e16, 1e-07],
        (0.0,), [(0.0,), (1.5, 2.5)], ((0.5, 0.25),),
        [[1.0, 2.0], [3.0, 4.0]], ([1.0], [2.0]), [[1.0], [2.0, 3.0, -0.0]],
        [[1.0], []], [[], [1.0]], [[0.5, np.float64(0.25)], [1.0]],
        [0.5, np.float64(0.25)], [[1.0, float("inf")], [float("nan")]],
        [float("-inf"), 0.5], [[1.0, 2.0], (3.0, 4.0)], [[1.0, 2], [3.0]],
    ])
    def test_float_rows_and_their_fallbacks(self, obj):
        # the one-repr path for matrices of exact floats, and each case that
        # must leave it, flat rows among them
        for value in (obj, {"m": obj}, [obj, obj]):
            assert cli._json_text(value) == _reference_text(value)

    def test_unserializable_values_raise_as_json_does(self):
        for obj in ({"a": object()}, [np.int64(1)], {(1, 2): 0}):
            with pytest.raises(TypeError):
                json.dumps(obj, indent=2, sort_keys=True)
            with pytest.raises(TypeError):
                cli._json_text(obj)

    def test_every_command_writes_what_json_dumps_writes(
            self, tmp_path, capsys, scalar_channel_plant, singular_family_plant):
        """analyze, solve and verify on generated plants, an obstruction and
        an infeasible result, and a result printed to stdout: each text is
        its own re-dump through `json.dumps`."""
        texts = []

        def run(argv, code):
            out = tmp_path / "out.json"
            assert main(argv + ["--output", str(out)]) == code
            texts.append(out.read_text())
            return str(out)

        for seed, domain in ((2, "continuous"), (10, "discrete")):
            sys_ = generate_instance(InstanceSpec(seed=seed, n=4, m=2, q=1, p=2, r=1,
                                                  time_domain=domain))
            plant = write_problem(tmp_path / f"g{seed}.json", sys_)
            for problem in ("p1", "p2"):
                run(["analyze", "--input", plant, "--problem", problem], EXIT_OK)
            result = tmp_path / "result.json"
            assert main(["solve", "--input", plant, "--output", str(result)]) == EXIT_OK
            texts.append(result.read_text())
            run(["verify", "--input", plant, "--compensator", str(result)], EXIT_OK)
        obstructed = write_problem(tmp_path / "o.json", singular_family_plant)
        run(["solve", "--input", obstructed], EXIT_OBSTRUCTION)
        infeasible = write_problem(tmp_path / "i.json", scalar_channel_plant)
        run(["solve", "--input", infeasible, "--problem", "p2"], EXIT_INFEASIBLE)
        capsys.readouterr()
        assert main(["analyze", "--input", infeasible, "--problem", "p2"]) == EXIT_INFEASIBLE
        texts.append(capsys.readouterr().out)
        verdicts = [json.loads(text).get("verdict") for text in texts]
        assert {"solved", "verified", "well_posedness_obstruction",
                "infeasible"} <= set(verdicts)
        for text in texts:
            assert text == _reference_text(json.loads(text)) + "\n"

    @pytest.mark.parametrize("command", ["analyze", "solve", "verify"])
    def test_stale_longer_file_is_cut_to_the_new_text(self, tmp_path, capsys, command):
        argv = _command_argv(tmp_path, command)
        code = main(argv)
        text = capsys.readouterr().out
        assert text == _reference_text(json.loads(text)) + "\n"
        out = tmp_path / "out.json"
        out.write_bytes(b"x" * (len(text) + 50_000))
        assert main(argv + ["--output", str(out)]) == code
        assert out.read_bytes() == text.encode()

    def test_new_file_mode_is_that_of_open_w(self, tmp_path):
        old = os.umask(0o027)
        try:
            cli._write_result(str(tmp_path / "new.json"), {"a": 1})
            with open(tmp_path / "reference.json", "w"):
                pass
        finally:
            os.umask(old)
        mode = (tmp_path / "new.json").stat().st_mode & 0o777
        assert mode == 0o666 & ~0o027
        assert mode == (tmp_path / "reference.json").stat().st_mode & 0o777

    def test_output_to_dev_null(self, tmp_path):
        assert main(_command_argv(tmp_path, "analyze") + ["--output", os.devnull]) == EXIT_OK

    def test_output_to_a_fifo(self, tmp_path):
        # the read end is opened first, so opening the write end does not
        # block, and the text fits in the pipe's buffer
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            cli._write_result(str(fifo), {"a": [1.0]})
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert text == _reference_text({"a": [1.0]}) + "\n"

    @pytest.mark.parametrize("k", [1, 7, 4096])
    def test_partial_writes_are_resumed(self, tmp_path, monkeypatch, k):
        # os.write may take fewer bytes than it is given: the writer writes
        # the rest, over a longer stale file
        payload = {"rows": [[0.1 * i + j for i in range(12)] for j in range(8)], "k": k}
        text = (_reference_text(payload) + "\n").encode()
        real_write = os.write
        taken = []

        def short_write(fd, data):
            taken.append(real_write(fd, bytes(data[:k])))
            return taken[-1]

        monkeypatch.setattr(cli.os, "write", short_write)
        out = tmp_path / "out.json"
        out.write_bytes(b"x" * (len(text) + 1000))
        cli._write_result(str(out), payload)
        monkeypatch.undo()
        assert out.read_bytes() == text
        assert len(taken) == -(-len(text) // k)

    @pytest.mark.parametrize("failing", ["write", "ftruncate"])
    def test_failed_write_exits_1_and_closes_the_file(self, tmp_path, monkeypatch, capsys,
                                                      failing):
        out = tmp_path / "out.json"
        out.write_text("x" * 10)
        opened, closed = [], []
        real_open, real_close = os.open, os.close

        def spy_open(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            if path == str(out):
                opened.append(fd)
            return fd

        def spy_close(fd):
            closed.append(fd)
            real_close(fd)

        def fail(*args):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(cli.os, "open", spy_open)
        monkeypatch.setattr(cli.os, "close", spy_close)
        monkeypatch.setattr(cli.os, failing, fail)
        code = main(_command_argv(tmp_path, "analyze") + ["--output", str(out)])
        monkeypatch.undo()
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: cannot write: {os.strerror(errno.EIO)}\n"
        assert len(opened) == 1 and opened[0] in closed

    def test_writer_never_truncates_on_open(self, tmp_path, monkeypatch):
        flags = []
        real_open = os.open

        def spy_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(cli.os, "open", spy_open)
        out = tmp_path / "out.json"
        out.write_text("x" * 1000)
        for command in ("analyze", "solve", "verify"):
            assert main(_command_argv(tmp_path, command) + ["--output", str(out)]) != EXIT_USAGE
        assert len(flags) == 3
        assert all(flag & os.O_CREAT and not flag & os.O_TRUNC for flag in flags)
        assert len(out.read_text()) < 1000


class TestParserReuse:
    """`main` parses every call with one parser built at import; no value
    of one call may reach the next."""

    def _calls(self, tmp_path, plant, compensator):
        return [
            ["solve"],
            ["verify", "--input", plant, "--compensator", compensator, "--problem", "p2",
             "--output", str(tmp_path / "v.json")],
            ["solve", "--input", plant, "--output", str(tmp_path / "s.json")],
        ]

    def _outcomes(self, argvs, tmp_path, capsys, monkeypatch, fresh):
        seen, outcomes = [], []
        original = cli.run

        def spy(command, args):
            seen.append(dict(vars(args)))
            return original(command, args)

        monkeypatch.setattr(cli, "run", spy)
        for argv in argvs:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            code = main(argv)
            captured = capsys.readouterr()
            files = {}
            for name in ("v.json", "s.json"):
                path = tmp_path / name
                if path.exists():
                    files[name] = path.read_bytes()
                    path.unlink()
            outcomes.append((code, captured.out, captured.err, files))
        return seen, outcomes

    def test_calls_in_a_row_equal_fresh_parsers(self, tmp_path, capsys, monkeypatch,
                                                solved_plant):
        plant, result = solved_plant
        compensator = tmp_path / "comp.json"
        compensator.write_text(json.dumps(result))
        argvs = self._calls(tmp_path, plant, str(compensator))
        parser = cli._PARSER
        seen, reused = self._outcomes(argvs, tmp_path, capsys, monkeypatch, fresh=False)
        assert cli._PARSER is parser
        # the p1 compensator decouples but does not stabilize: verify --problem
        # p2 exits 2, and the solve after it runs p1 again
        assert [o[0] for o in reused] == [EXIT_USAGE, EXIT_INFEASIBLE, EXIT_OK]
        assert "the following arguments are required: --input" in reused[0][2]
        verify_args, solve_args = seen
        assert (verify_args["command"], verify_args["problem"]) == ("verify", "p2")
        assert solve_args == {"command": "solve", "input": plant, "problem": "p1",
                              "output": str(tmp_path / "s.json")}
        _, fresh = self._outcomes(argvs, tmp_path, capsys, monkeypatch, fresh=True)
        assert reused == fresh

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._PARSER

    def test_subcommands_are_parsed_by_the_module_parser(self, tmp_path, capsys,
                                                         monkeypatch, solved_plant):
        # `main` reads a subcommand with `_PARSER`'s own subparser: one with
        # another default, patched in, is the one whose default arrives
        plant, _ = solved_plant
        parser = cli.build_parser()
        commands = next(action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        commands["analyze"].set_defaults(problem="p2")
        monkeypatch.setattr(cli, "_PARSER", parser)
        seen, _ = self._outcomes([["analyze", "--input", plant]], tmp_path, capsys,
                                 monkeypatch, fresh=False)
        assert seen == [{"command": "analyze", "input": plant, "problem": "p2",
                         "output": None}]


class TestDispatch:
    """`main` parses a subcommand with that command's own parser, and gives
    the exit code, stdout, stderr and `run` Namespace of a full parse with a
    fresh parser on every argv shape."""

    def _argvs(self, plant, compensator, out):
        return [
            [],
            ["-h"],
            ["solve", "-h"],
            ["verify", "--help"],
            ["frobnicate", "--input", plant],
            ["solve", "--input", plant, "--frobnicate"],
            ["verify", "--input", plant, "--output", out, "--bogus", "1"],
            ["solve"],
            ["verify", "--input", plant],
            ["solve", "--input", plant, "--problem", "p3"],
            ["solve", f"--input={plant}", "--output", out],
            ["solve", "--output", out, "--problem", "p1", "--input", plant],
            ["verify", "--compensator", compensator, "--output", out, "--input", plant],
            ["analyze", "--in", plant, "--out", out, "--problem", "p2"],
            ["solve", "--input", plant, "--seed", "1"],
            ["solve", "--input", plant, "--output", out, "--", "x"],
            ["solve", "--input", plant, "solve"],
            ["solve", "--input"],
            ["--", "solve", "--input", plant],
            ["solve", "--input", plant, "-h", "--bogus"],
        ]

    def _outcome(self, argv, out, capsys, monkeypatch):
        seen = []
        original = cli.run

        def spy(command, args):
            seen.append(list(vars(args).items()))
            return original(command, args)

        with monkeypatch.context() as patch:
            patch.setattr(cli, "run", spy)
            code = main(argv)
        captured = capsys.readouterr()
        written = None
        if os.path.exists(out):
            written = Path(out).read_bytes()
            os.unlink(out)
        return code, captured.out, captured.err, seen, written

    def test_main_equals_a_full_parse(self, tmp_path, capsys, monkeypatch, solved_plant):
        plant, result = solved_plant
        compensator = tmp_path / "comp.json"
        compensator.write_text(json.dumps(result))
        out = str(tmp_path / "out.json")
        direct, full, full_parses = [], [], []
        parse_args = cli._PARSER.parse_args

        def counting_parse_args(argv):
            full_parses.append(argv[0] if argv else None)
            return parse_args(argv)

        for argv in self._argvs(plant, str(compensator), out):
            with monkeypatch.context() as patch:
                patch.setattr(cli._PARSER, "parse_args", counting_parse_args)
                direct.append(self._outcome(argv, out, capsys, monkeypatch))
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_parse",
                              lambda argv: cli.build_parser().parse_args(argv))
                full.append(self._outcome(argv, out, capsys, monkeypatch))
        for argv, got, expected in zip(self._argvs(plant, str(compensator), out),
                                       direct, full):
            assert got == expected, argv
        codes = Counter(outcome[0] for outcome in direct)
        assert codes == {EXIT_USAGE: 12, EXIT_OK: 8}
        # the full parse ran only where argv names no command or the
        # command's parser leaves arguments over; a command's errors and -h
        # exit from its own parser
        assert len(full_parses) == 8
        assert "usage: geodd [-h] {analyze,solve,verify} ..." in direct[5][2]
        assert "unrecognized arguments: --frobnicate" in direct[5][2]
        assert "geodd solve: error: argument --problem" in direct[9][2]
