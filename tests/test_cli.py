import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from gbspec import cli, g17, multidim, spectral, symbols
from gbspec.cardinal import cardinal_spline
from gbspec.cli import main
from gbspec.sections import SectionFamily, polynomial
from gbspec.spectral import ToeplitzSpec, eigenvalues_dense, toeplitz
from gbspec.symbols import symbol_fn
from oracles import PHASE_SWEEP, mp_nested_shape_error

CONFIGS = Path(__file__).resolve().parent.parent / "gbbench" / "configs"

PROBLEM_1D = {
    "d": 1, "kappa": "1", "beta": "0", "gamma": "0",
    "family": "hyperbolic", "alpha": 10.0, "mode": "nonnested", "p": 3,
    "geometry": {"G": "x", "G1": None, "G2": None},
}

PROBLEM_2D = {
    "d": 2, "K": [["1", "0"], ["0", "1"]], "beta": ["0", "0"], "gamma": "0",
    "nu": [1, 1], "p": [2, 2], "family": ["polynomial", "polynomial"],
    "mode": "nested",
}


@pytest.fixture
def config_1d(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM_1D))
    return str(path)


@pytest.fixture
def config_2d(tmp_path):
    path = tmp_path / "problem2d.json"
    path.write_text(json.dumps(PROBLEM_2D))
    return str(path)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestSymbolCommand:
    def test_row_count_contract(self, capsys):
        code, out = run(capsys, "symbol", "--kind", "f", "--p", "3",
                        "--family", "hyperbolic", "--alpha", "10",
                        "--grid", "512")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 513
        assert lines[0] == "theta,value"

    def test_deterministic_output(self, capsys):
        args = ("symbol", "--kind", "h", "--p", "4", "--family",
                "trigonometric", "--alpha", "1.2", "--grid", "64")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_missing_alpha(self, capsys):
        code, _ = run(capsys, "symbol", "--kind", "f", "--p", "3",
                      "--family", "hyperbolic")
        assert code == 1


class TestToeplitzCommand:
    def test_analytic_eigenvalues(self, capsys):
        code, out = run(capsys, "toeplitz", "--symbol", "f", "--p", "2",
                        "--family", "polynomial", "--m", "3", "--eig")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        eigs = sorted(float(re) for re, _ in rows)
        ref = [2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)]
        assert np.allclose(eigs, ref, atol=1e-9)


class TestToeplitzViews:
    """``toeplitz`` prints from a read-only view of the diagonals: its bytes
    are those of the dense matrix, and it makes no m-by-m copy of its own."""

    FAMILIES = [(), ("--alpha", "10")]

    @staticmethod
    def argv(kind, family, m, *extra):
        tag = "polynomial" if not family else "hyperbolic"
        return ["toeplitz", "--symbol", kind, "--p", "5", "--family", tag,
                *family, "--m", str(m), *extra]

    @staticmethod
    def spec(kind, family):
        fam = SectionFamily("hyperbolic", 10.0) if family else polynomial()
        return ToeplitzSpec(symbol_fn(kind, 5, fam).toeplitz_coefficients())

    @pytest.mark.parametrize("family", FAMILIES, ids=["polynomial", "hyperbolic"])
    @pytest.mark.parametrize("kind", ["h", "g", "f"])
    @pytest.mark.parametrize("m", [1, 2, 7, 64])
    def test_eig_matches_the_dense_matrix(self, capsys, kind, family, m):
        eigs = np.sort_complex(eigenvalues_dense(toeplitz(self.spec(kind, family), m)))
        want = cli._csv(["re", "im"], np.column_stack((eigs.real, eigs.imag)))
        assert run(capsys, *self.argv(kind, family, m, "--eig")) == (0, want)

    @pytest.mark.parametrize("family", FAMILIES, ids=["polynomial", "hyperbolic"])
    @pytest.mark.parametrize("kind", ["h", "g", "f"])
    @pytest.mark.parametrize("m", [1, 7, 100])
    def test_csv_matches_the_dense_matrix(self, capsys, kind, family, m):
        # a 100-column matrix prints over several blocks of rows
        mat = toeplitz(self.spec(kind, family), m)
        want = cli._csv([f"c{j}" for j in range(m)], mat)
        assert run(capsys, *self.argv(kind, family, m)) == (0, want)

    def test_eig_makes_no_matrix_copy(self, capsys):
        # a tridiagonal matrix takes the tau closed form, O(m) memory: what
        # is left is the CSV text and its writer's blocks; the parent's
        # first parity block alone, m/2 by m/2, was 2 MiB at m = 1024, and a
        # dense copy of the matrix would be 8 MiB
        argv = ["toeplitz", "--symbol", "f", "--p", "2", "--family",
                "polynomial", "--m", "1024", "--eig"]
        # import, and build the symbol and the CSV writer's tables (which
        # 600 values reach), outside the trace
        main([*argv[:-2], "300", "--eig"])
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(capsys.readouterr().out.splitlines()) == 1025
        assert peak <= 0.5 * 1024**2

    @pytest.mark.parametrize("p,dense", [(2, 0), (3, 0), (4, 1), (5, 1)])
    @pytest.mark.parametrize("kind", ["h", "g", "f"])
    def test_eig_is_dense_from_bandwidth_two(self, capsys, monkeypatch, kind, p,
                                             dense):
        # p <= 3 gives a tridiagonal matrix, whose spectrum is the tau closed
        # form; from p = 4 one matrix view is solved dense
        calls = {name: _counted(monkeypatch, name, spectral)
                 for name in ("toeplitz_view", "eigenvalues_dense")}
        argv = ["toeplitz", "--symbol", kind, "--p", str(p), "--family",
                "hyperbolic", "--alpha", "10", "--m", "33", "--eig"]
        code, out = run(capsys, *argv)
        assert code == 0 and len(out.splitlines()) == 34
        assert {name: len(c) for name, c in calls.items()} == \
            {"toeplitz_view": dense, "eigenvalues_dense": dense}

    def test_large_order_is_refused_before_any_matrix(self, capsys, monkeypatch):
        calls = _counted(monkeypatch, "toeplitz_view")
        argv = ["toeplitz", "--symbol", "f", "--p", "2", "--family",
                "polynomial", "--m", "1000000"]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: order 1000000 exceeds cap 4096\n"
        assert calls == []


@pytest.mark.parametrize("argv,target", [
    (["symbol", "--kind", "f", "--p", "3", "--family", "polynomial",
      "--grid", "2000000000"], "_grid"),
    (["bounds", "--p", "3", "--family", "polynomial"], "bounds_report"),
], ids=["symbol", "bounds"])
def test_memory_error_is_one_line_and_exit_two(capsys, monkeypatch, argv, target):
    # the handler's allocation is replaced by one that fails at once: no
    # test allocates what it reports as too large
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.9 GiB for an array with "
                          "shape (2000000000,) and data type float64")

    monkeypatch.setattr(cli, target, refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("out of memory: Unable to allocate 14.9 GiB for an "
                            "array with shape (2000000000,) and data type "
                            "float64\n")


class TestCardinalAndBounds:
    def test_cardinal_values(self, capsys):
        code, out = run(capsys, "cardinal", "--family", "polynomial",
                        "--p", "2", "--grid", "7")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        ts = [float(a) for a, _ in rows]
        assert ts[0] == 0.0 and ts[-1] == 3.0

    def test_bounds_json(self, capsys):
        code, out = run(capsys, "bounds", "--p", "5", "--family",
                        "hyperbolic", "--alpha", "10", "--grid", "256")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower_status"] == "PROVED"
        assert payload["upper_violations"] == 0

    @pytest.mark.parametrize("family", [("polynomial",),
                                        ("hyperbolic", "--alpha", "10"),
                                        ("trigonometric", "--alpha", "2")])
    def test_bounds_below_degree_two_is_strict_json(self, capsys, family):
        # there is no f below p = 2: its fields print null, never a bare NaN
        code, out = run(capsys, "bounds", "--p", "1", "--family", *family)
        assert code == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(out, parse_constant=refuse)
        for key in ("symbol_max", "decay_ratio", "f_zero_value",
                    "f_zero_first_diff", "f_zero_second_diff"):
            assert payload[key] is None, key
        assert math.isfinite(payload["h_min"])

    def test_bounds_large_grid_allocates_no_grid(self, capsys):
        # the exact extrema clear the bounds, so the 10**8 points are never
        # built (800 MB a column)
        tracemalloc.start()
        try:
            code = main(["bounds", "--p", "5", "--family", "polynomial",
                         "--grid", "100000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        payload = json.loads(captured.out)
        assert (payload["upper_violations"], payload["lower_violations"]) == (0, 0)
        assert payload["grid_size"] == 100000000
        assert peak < 2**20

    @pytest.mark.parametrize("family, p", [("hyperbolic", "3"), ("trigonometric", "4")])
    @pytest.mark.parametrize("alpha", ["1e-9", "1e-300"])
    def test_bounds_at_small_phases(self, capsys, family, p, alpha):
        # the envelope's amplitude divided by cosh(a) - 1 or 1 - cos(a),
        # which is 0.0 at these phases
        code = main(["bounds", "--p", p, "--family", family, "--alpha", alpha])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        payload = json.loads(captured.out)
        assert (payload["lower_violations"], payload["upper_violations"]) == (0, 0)

    def test_decay_table(self, capsys):
        code, out = run(capsys, "decay", "--family", "polynomial",
                        "--pmin", "2", "--pmax", "6")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 5

    @pytest.mark.parametrize("argv, p", [
        (["decay", "--family", "polynomial", "--pmin", "2", "--pmax", "400"], 81),
        (["decay", "--family", "hyperbolic", "--alpha", "10", "--pmin", "80",
          "--pmax", "90"], 83),
        (["bounds", "--p", "90", "--family", "polynomial", "--grid", "64"], 90),
    ], ids=["decay-polynomial", "decay-hyperbolic", "bounds"])
    def test_decay_ratio_of_rounding_noise_exits_two(self, capsys, argv, p):
        # where f(pi) is no larger than the rounding bound of its own sum,
        # the ratio has no correct digit, nor a sign
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"numerical failure: decay ratio at p = {p}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("family", [polynomial(), *PHASE_SWEEP], ids=repr)
    def test_h_min_of_rounding_noise_exits_two(self, capsys, family):
        # h_min sums floor(p/2) + 1 terms; where it does not exceed
        # gamma_n (|c_0| + 2 sum |c_k|), the rounding bound of that sum, it
        # has no correct digit, and the first such degree is refused
        u = np.finfo(float).eps / 2

        def noise(p):
            h = symbol_fn("h", p, family)
            c, n = h.coefficients, h.coefficients.size
            bound = n * u / (1 - n * u) * (abs(c[0]) + 2.0 * np.abs(c[1:]).sum())
            return not abs(symbols._extrema(h)[0]) > bound

        first = next(p for p in range(1, 200) if noise(p))
        args = ["--family", family.tag]
        if not family.is_polynomial:
            args += ["--alpha", repr(family.phase)]
        code = main(["bounds", "--p", str(first), *args])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"numerical failure: h_min at p = {first}: ")
        assert captured.err.count("\n") == 1
        code, out = run(capsys, "bounds", "--p", str(first - 1), *args)
        assert code == 0
        assert json.loads(out)["h_min"] > 0

    def test_last_answered_decay_ratios_are_positive(self, capsys):
        for family in (["polynomial"], ["hyperbolic", "--alpha", "10"]):
            code, out = run(capsys, "decay", "--family", *family,
                            "--pmin", "70", "--pmax", "80")
            assert code == 0
            assert all(float(line.split(",")[1]) > 0
                       for line in out.splitlines()[1:])


class TestOutputPath:
    @pytest.fixture(params=["missing-directory", "directory"])
    def unwritable(self, request, tmp_path):
        if request.param == "directory":
            # a path that names a directory, which no format can write to
            (tmp_path / "d").mkdir()
            return tmp_path / "d"
        return tmp_path / "missing" / "x.npy"

    def check_refused(self, capsys, argv, path):
        code = main([*argv, "--out", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(f"error: cannot write {str(path)!r}: ")
        assert captured.err.count("\n") == 1

    def test_csv(self, capsys, unwritable):
        self.check_refused(capsys, ["cardinal", "--family", "polynomial", "--p", "3",
                                    "--grid", "5"], unwritable)

    def test_json(self, capsys, unwritable):
        self.check_refused(capsys, ["bounds", "--p", "3", "--family", "polynomial"],
                           unwritable)

    def test_npy(self, capsys, config_1d, unwritable):
        self.check_refused(capsys, ["assemble", "--config", config_1d, "--n", "8",
                                    "--format", "npy"], unwritable)


class TestAssembleAndEig:
    def test_matrix_shape(self, capsys, config_1d):
        code, out = run(capsys, "assemble", "--config", config_1d, "--n", "8")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 8 + 3 - 2

    def test_npy_roundtrip(self, capsys, config_1d, tmp_path):
        target = tmp_path / "matrix.npy"
        code, _ = run(capsys, "assemble", "--config", config_1d, "--n", "8",
                      "--format", "npy", "--out", str(target))
        assert code == 0
        mat = np.load(target)
        assert mat.shape == (9, 9)

    def test_npy_writes_the_path_it_is_given(self, capsys, config_1d, tmp_path,
                                             monkeypatch):
        # np.save appends ".npy" to a path without it; --out is written as named
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path / "out")
        code, _ = run(capsys, "assemble", "--config", config_1d, "--n", "8",
                      "--format", "npy", "--out", "mat")
        assert code == 0
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["mat"]
        code, out = run(capsys, "assemble", "--config", config_1d, "--n", "8")
        assert np.array_equal(np.load("mat"), np.loadtxt(out.splitlines()[1:],
                                                         delimiter=","))

    def test_split_parts(self, capsys, config_1d):
        parts = {}
        for part in ("full", "stiffness", "advection", "mass"):
            code, out = run(capsys, "assemble", "--config", config_1d,
                            "--n", "8", "--part", part)
            assert code == 0
            rows = out.strip().splitlines()[1:]
            parts[part] = np.array([[float(v) for v in r.split(",")]
                                    for r in rows])
        # kappa = 1, beta = gamma = 0, identity map: A = n^2 * stiffness
        assert np.allclose(64 * parts["stiffness"], parts["full"], atol=1e-9)
        assert parts["mass"].shape == parts["advection"].shape == (9, 9)

    def test_normalized_requires_full(self, capsys, config_1d):
        code, _ = run(capsys, "assemble", "--config", config_1d, "--n", "8",
                      "--part", "mass", "--normalized")
        assert code == 1

    def test_eig_rows(self, capsys, config_1d):
        code, out = run(capsys, "eig", "--config", config_1d, "--n", "8")
        assert code == 0
        assert len(out.strip().splitlines()) == 10


class TestDistributionCommands:
    def test_1d_report(self, capsys, config_1d):
        code, out = run(capsys, "distribution", "--config", config_1d,
                        "--n", "16,32", "--eps", "2.0")
        assert code == 0
        payload = json.loads(out)
        runs = payload["runs"]
        assert [r["n"] for r in runs] == [16, 32]
        assert runs[1]["mean_abs_discrepancy"] < runs[0]["mean_abs_discrepancy"]
        assert "2" in runs[0]["outliers"]

    def test_2d_report(self, capsys, config_2d):
        code, out = run(capsys, "distribution-md", "--config", config_2d,
                        "--n", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["runs"][0]["order"] == 36

    def test_2d_moments_once_per_command(self, capsys, config_2d, monkeypatch):
        calls = []
        inner = spectral.symbol_moments

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(spectral, "symbol_moments", counted)
        code, out = run(capsys, "distribution-md", "--config", config_2d,
                        "--n", "5,6,7")
        assert (code, len(calls)) == (0, 1)
        # each n reports what it reports on its own
        for n, report in zip((5, 6, 7), json.loads(out)["runs"]):
            code, single = run(capsys, "distribution-md", "--config", config_2d,
                               "--n", str(n))
            assert json.loads(single)["runs"] == [report]

    def test_x1_names_the_1d_coordinate(self, capsys, tmp_path):
        outputs = []
        for kappa in ("1+x1", "1+x"):
            path = tmp_path / "kappa.json"
            path.write_text(json.dumps(dict(PROBLEM_1D, kappa=kappa)))
            code, out = run(capsys, "distribution", "--config", str(path),
                            "--n", "16")
            assert code == 0, kappa
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_geometry_in_x1_matches_x(self, capsys, tmp_path):
        outputs = []
        for g in ("(x1+x1^2)/2", "(x+x^2)/2"):
            path = tmp_path / "geometry.json"
            path.write_text(json.dumps(dict(PROBLEM_1D, geometry={"G": g})))
            code, out = run(capsys, "distribution", "--config", str(path),
                            "--n", "16")
            assert code == 0, g
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_invalid_config_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"d": 1, "kappa": "x-2"}))
        code, _ = run(capsys, "distribution", "--config", str(bad), "--n", "8")
        assert code == 1

    @pytest.mark.parametrize("changes, message", [
        ({"alpha": "abc"}, "family 'hyperbolic' needs a numeric alpha, got 'abc'"),
        ({"alpha": [1, 2]}, "family 'hyperbolic' needs a numeric alpha, got [1, 2]"),
        ({"alpha": True}, "family 'hyperbolic' needs a numeric alpha, got True"),
        ({"geometry": {"G": "x", "G1": 1}}, "expected an expression string, got 1"),
        ({"d": 2, "K": [[1, 0], [0, 1]]}, "expected an expression string, got 1"),
        ({"d": 2, "family": ["hyperbolic", "hyperbolic"], "alpha": ["x", 1]},
         "family 'hyperbolic' needs a numeric alpha, got 'x'"),
        ({"d": 2, "nu": ["a", 1]}, "2D config: key 'nu' has the wrong type"),
        ({"d": 2, "nu": [1.5, 1]}, "2D config: key 'nu' has the wrong type"),
        ({"d": 2, "nu": [True, 1]}, "2D config: key 'nu' has the wrong type"),
        ({"d": 2, "p": [3.7, 3]}, "2D config: key 'p' has the wrong type"),
        ({"p": True}, "1D config: key 'p' has the wrong type"),
        ({"geometry": "G"}, "1D config: key 'geometry' has the wrong type"),
        ({"d": 2, "geometry": "G"}, "2D config: key 'geometry' has the wrong type"),
        ({"d": 2, "geometry": ["x1", "x2"]},
         "2D config: key 'geometry' has the wrong type"),
        ({"d": 2, "alpha": 10.0}, "2D config: key 'alpha' has the wrong type"),
        ({"d": 2.0}, "config: key 'd' has the wrong type"),
        ({"d": True}, "config: key 'd' has the wrong type"),
        ({"d": 1.0}, "config: key 'd' has the wrong type"),
        ({"d": "1"}, "config: key 'd' has the wrong type"),
    ])
    def test_wrong_typed_config_value_exits_one(self, capsys, tmp_path, changes,
                                                message):
        # one error line, never a traceback or a value silently truncated
        cfg = dict(PROBLEM_2D if changes.get("d") == 2 else PROBLEM_1D, **changes)
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(cfg))
        command = "distribution-md" if cfg["d"] == 2 else "distribution"
        code = main([command, "--config", str(path), "--n", "8"])
        assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))

    @pytest.mark.parametrize("changes, message", [
        ({"K": [["1e308*10", "0"], ["0", "1"]]}, "K is not finite"),
        ({"geometry": {"G": ["x1*1e308*10", "x2"]}}, "G is not finite"),
        ({"beta": ["0", "1e308*10"]}, "beta is not finite"),
        ({"gamma": "1e308*x1*10"}, "gamma is not finite"),
    ], ids=["K", "G", "beta", "gamma"])
    def test_non_finite_md_input_is_refused_at_load(self, capsys, monkeypatch,
                                                    tmp_path, changes, message):
        # one line and exit 1, before any basis: no solve, no numpy warning
        bases = _counted(monkeypatch, "gb_basis", multidim)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(dict(PROBLEM_2D, **changes)))
        code = main(["distribution-md", "--config", str(path), "--n", "8"])
        assert (code, capsys.readouterr(), bases) == (
            1, ("", f"error: {message} on the validation grid\n"), [])

    @pytest.mark.parametrize("ns", [[8], [8, 12, 6]])
    def test_md_bases_are_built_once_per_n(self, monkeypatch, config_2d, ns):
        bases = _counted(monkeypatch, "gb_basis", multidim)
        argv = ["distribution-md", "--config", config_2d, "--n", ",".join(map(str, ns))]
        assert main(argv) == 0
        assert len(bases) == PROBLEM_2D["d"] * len(ns)

    def test_infeasible_phase_exits_one(self, capsys, tmp_path):
        cfg = dict(PROBLEM_1D, family="trigonometric", alpha=4.0)
        path = tmp_path / "trig.json"
        path.write_text(json.dumps(cfg))
        code, _ = run(capsys, "distribution", "--config", str(path), "--n", "8")
        assert code == 1

    @pytest.mark.parametrize("eps,shown", [("nan", "nan"), ("-1", "-1.0"),
                                           ("inf", "inf"), ("-inf", "-inf")])
    def test_meaningless_eps_is_refused(self, capsys, config_1d, eps, shown):
        code = main(["distribution", "--config", config_1d, "--n", "8",
                     "--eps", f"0.1,{eps}"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert f"got {shown}\n" in captured.err

    @pytest.mark.parametrize("command", ["distribution", "distribution-md"])
    def test_bad_eps_is_refused_before_any_solve(self, capsys, monkeypatch,
                                                 config_1d, config_2d, command):
        solves = _counted(monkeypatch, "eigenvalues_dense")
        config = config_1d if command == "distribution" else config_2d
        code = main([command, "--config", config, "--n", "8,16", "--eps", "-1"])
        captured = capsys.readouterr()
        assert (code, captured.out, len(solves)) == (1, "", 0)
        assert "outlier eps must be finite and >= 0, got -1.0\n" in captured.err

    @pytest.mark.parametrize("argv,message", [
        (["distribution", "--config", "1d_polynomial_advection.json", "--n", "64,1"],
         "need n >= 2 subintervals and degree p >= 2"),
        (["distribution-md", "--config", "2d_polynomial_trigonometric.json",
          "--n", "8,1"], "need n >= 2 subintervals and degree p >= 2"),
        (["distribution", "--config", "1d_trigonometric_nested.json", "--n", "64,2"],
         "trigonometric phase 10.0 needs n >= 4 in nested mode, got n = 2"),
        (["distribution", "--config", "1d_hyperbolic_geometry.json",
          "--n", "64,4096"], "order 4097 exceeds cap 4096"),
        (["distribution-md", "--config", "2d_polynomial_trigonometric.json",
          "--n", "8,100"], "system order 20200 exceeds cap 4096"),
    ], ids=["1d-n1", "md-n1", "1d-nested-trigonometric", "1d-cap", "md-cap"])
    def test_bad_n_is_refused_before_any_solve(self, capsys, monkeypatch, argv,
                                               message):
        solves = _counted(monkeypatch, "eigenvalues_dense")
        argv[2] = str(CONFIGS / argv[2])
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")
        assert solves == []

    @pytest.mark.parametrize("command", ["distribution", "distribution-md"])
    @pytest.mark.parametrize("ns", [",", ""])
    def test_empty_n_list_is_refused(self, capsys, config_1d, config_2d,
                                     command, ns):
        config = config_1d if command == "distribution" else config_2d
        code = main([command, "--config", config, "--n", ns])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "--n needs at least one value" in captured.err


@pytest.mark.parametrize("argv,counted", [
    (["eig", "--config", str(CONFIGS / "1d_hyperbolic_geometry.json"),
      "--n", "4096"], (("gb_basis", multidim), ("assemble", cli))),
    (["assemble", "--config", str(CONFIGS / "1d_hyperbolic_geometry.json"),
      "--n", "4096"], (("gb_basis", multidim), ("assemble", cli))),
    (["toeplitz", "--symbol", "f", "--p", "2", "--family", "polynomial",
      "--m", "4097", "--eig"], (("toeplitz_view", cli),)),
    (["toeplitz", "--symbol", "f", "--p", "2", "--family", "polynomial",
      "--m", "4097"], (("toeplitz_view", cli),)),
], ids=["eig", "assemble", "toeplitz", "toeplitz-csv"])
def test_order_cap_is_checked_before_any_matrix(capsys, monkeypatch, argv, counted):
    calls = [_counted(monkeypatch, name, module) for name, module in counted]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: order 4097 exceeds cap 4096\n"
    assert calls == [[]] * len(counted)


def _counted(monkeypatch, name: str, module=cli) -> list:
    """Wrap ``module.<name>`` to record its calls; returns the call list."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    # argparse names the command argument by its dest, as ever
    assert "argument command: invalid choice: 'frobnicate'" in capsys.readouterr().err
    assert main([]) == 1
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: command\n")


@pytest.mark.parametrize("family,alpha,p,n", [("hyperbolic", 1.0, 7, 256),
                                              ("trigonometric", 2.0, 8, 64)])
def test_small_phase_high_degree_distribution_answers(capsys, tmp_path, family,
                                                      alpha, p, n):
    # effective phases 1/256 and 1/32 at degrees 7 and 8
    path = tmp_path / "small_phase.json"
    path.write_text(json.dumps({**PROBLEM_1D, "family": family, "alpha": alpha,
                                "mode": "nested", "p": p}))
    code = main(["distribution", "--config", str(path), "--n", str(n)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["runs"][0]["order"] == n + p - 2
    fam = SectionFamily(family, alpha)
    assert mp_nested_shape_error(n, p, fam) <= 1e-9


SYMBOL_COMMANDS = [
    ["cardinal", "--p", "3"],
    ["symbol", "--kind", "f", "--p", "4"],
    ["bounds", "--p", "3"],
    ["decay", "--pmax", "5"],
    ["toeplitz", "--symbol", "h", "--p", "3", "--m", "5"],
]


@pytest.mark.parametrize("alpha", ["100", "200", "800"])
@pytest.mark.parametrize("argv", SYMBOL_COMMANDS, ids=lambda a: a[0])
def test_large_hyperbolic_phase_is_a_numerical_failure(capsys, argv, alpha):
    # hyperbolic phases above 76 are refused
    code = main([*argv, "--family", "hyperbolic", "--alpha", alpha])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", SYMBOL_COMMANDS, ids=lambda a: a[0])
def test_hyperbolic_phase_cap(capsys, argv):
    assert main([*argv, "--family", "hyperbolic", "--alpha", "76"]) == 0
    assert capsys.readouterr().err == ""
    for alpha in ("76.5", "100"):
        code = main([*argv, "--family", "hyperbolic", "--alpha", alpha])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == (f"numerical failure: hyperbolic effective phase {alpha} is "
                       "above the supported maximum 76\n")


def test_hyperbolic_phase_cap_in_nonnested_distribution(capsys, tmp_path):
    # every interval of a non-nested basis has the effective phase alpha
    path = tmp_path / "large_phase.json"
    for alpha, expected in ((76.0, 0), (77.0, 2)):
        path.write_text(json.dumps({**PROBLEM_1D, "alpha": alpha}))
        code = main(["distribution", "--config", str(path), "--n", "8"])
        out, err = capsys.readouterr()
        assert code == expected, alpha
        if expected:
            assert out == "" and "above the supported maximum 76" in err


GRID_COMMANDS = [
    (["cardinal", "--p", "3", "--family", "polynomial"], "t,value\n"),
    (["symbol", "--kind", "h", "--p", "3", "--family", "hyperbolic", "--alpha", "2"],
     "theta,value\n"),
]


@pytest.mark.parametrize("argv,header", GRID_COMMANDS, ids=["cardinal", "symbol"])
def test_negative_grid_is_refused(capsys, argv, header):
    for grid in ("-1", "-5000"):
        code = main([*argv, "--grid", grid])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: --grid must be >= 0, got {grid}\n"
    assert main([*argv, "--grid", "0"]) == 0
    assert capsys.readouterr().out == header


def test_small_bounds_grid_names_the_option(capsys):
    argv = ["bounds", "--p", "3", "--family", "polynomial"]
    for grid in ("10", "63", "-1"):
        code = main([*argv, "--grid", grid])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: --grid must be >= 64, got {grid}\n"
    assert main([*argv, "--grid", "64"]) == 0
    assert json.loads(capsys.readouterr().out)["grid_size"] == 64


PARSER_ARGVS = [
    [], ["-h"], ["bogus"], ["--"], ["--", "bounds"],
    *[[name, "-h"] for name in cli._COMMANDS],
    ["bounds", "--p", "3", "--family", "polynomial", "--bogus"],
    ["bounds", "--p", "3", "--family", "polynomial", "extra"],
    ["bounds", "--family", "polynomial"],
    ["bounds", "--p", "3", "--family", "cubic"],
    ["bounds", "--p", "x", "--family", "polynomial"],
    ["bounds", "--p", "3", "--family", "polynomial", "--grid", "64", "--"],
    ["bounds", "--", "--p", "3", "--family", "polynomial"],
    ["cardinal", "--fam", "polynomial", "--p", "2", "--grid", "5"],
    ["decay", "--family", "polynomial", "--pmin", "1", "--pmax", "3"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda a: " ".join(a) or "-")
def test_named_command_parses_as_with_the_full_parser(capsys, monkeypatch, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    # a fresh full parser, not one that main kept from an earlier call
    built = []
    full = cli.build_parser

    def fresh_full(command=None):
        built.append(command)
        return full()

    monkeypatch.setattr(cli, "_PARSERS", {})
    monkeypatch.setattr(cli, "build_parser", fresh_full)
    assert main(list(argv)) == code
    assert capsys.readouterr() == (out, err)
    assert len(built) == 1


def test_main_builds_one_parser_per_command(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_PARSERS", {})
    built = _counted(monkeypatch, "build_parser")
    argvs = [["bounds", "--p", "3", "--family", "polynomial", "--grid", "64"],
             ["bounds", "--p", "x", "--family", "polynomial"], ["bogus"],
             ["cardinal", "--family", "polynomial", "--p", "2", "--grid", "5"], []]
    first = []
    for argv in argvs:
        first.append((main(list(argv)), capsys.readouterr()))
    assert built == [("bounds",), (None,), ("cardinal",)]
    # the kept parsers answer every call as the first ones did
    for argv, want in zip(argvs[::-1], first[::-1]):
        assert (main(list(argv)), capsys.readouterr()) == want
    assert len(built) == 3


def test_symbol_commands_do_not_import_numpy_polynomial(tmp_path):
    # in a fresh interpreter: the symbol maxima come from a colleague matrix
    # built in place, and importing numpy.polynomial costs every process
    script = """
import contextlib, io, sys
from gbspec import cli
argvs = [["bounds", "--p", "9", "--family", "hyperbolic", "--alpha", "10"],
         ["decay", "--family", "trigonometric", "--alpha", "2", "--pmin", "2",
          "--pmax", "12"],
         ["symbol", "--kind", "g", "--p", "6", "--family", "polynomial"],
         ["toeplitz", "--symbol", "f", "--p", "5", "--family", "polynomial",
          "--m", "16", "--eig"],
         ["cardinal", "--family", "hyperbolic", "--alpha", "1", "--p", "7"]]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print("numpy.polynomial" in sys.modules)
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, cwd=tmp_path, timeout=120)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "False\n")


def test_full_parser_has_every_command():
    family = ["--family", "polynomial"]
    minimal = {
        "cardinal": [*family, "--p", "2"],
        "symbol": ["--kind", "h", "--p", "2", *family],
        "bounds": ["--p", "2", *family],
        "decay": [*family, "--pmax", "2"],
        "assemble": ["--config", "c.json", "--n", "4"],
        "eig": ["--config", "c.json", "--n", "4"],
        "toeplitz": ["--symbol", "h", "--p", "2", *family, "--m", "3"],
        "distribution": ["--config", "c.json", "--n", "4"],
        "distribution-md": ["--config", "c.json", "--n", "4"],
    }
    parser = cli.build_parser()
    assert list(minimal) == list(cli._COMMANDS)
    for name, rest in minimal.items():
        args = parser.parse_args([name, *rest])
        assert (args.command, args.handler) == (name, cli._COMMANDS[name][2])


def _value_by_value_csv(header, rows) -> str:
    """The former CSV emitter: one f-string per value, ``re+imj`` for a
    complex one."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v.real:.17g}{v.imag:+.17g}j" if isinstance(v, complex)
                              else f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _bit_neighbours(values, count: int) -> np.ndarray:
    """``values`` and the ``count`` doubles on each side of each, by bit pattern."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    return (bits[:, None] + np.arange(-count, count + 1)).view(float).ravel()


#: the symbol-scan families of the benchmark whose cardinal splines print
BENCHMARK_FAMILIES = [
    polynomial(), *(SectionFamily("hyperbolic", a) for a in (0.1, 1.0, 10.0, 30.0)),
    *(SectionFamily("trigonometric", a) for a in (0.5, 1.5, 3.0))]


SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e-310, 1.7976931348623157e308,
                  1 / 3, 0.1, 1e16, 1e-5, 1e-4, 2.0**53 + 2]


class TestCsv:
    def test_special_values_in_zip_input(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([SPECIAL_VALUES, rng.standard_normal(3000)
                                 * 10.0 ** rng.integers(-300, 300, 3000)])
        other = rng.permutation(values)
        assert cli._csv(["t", "value"], zip(values, other)) == \
            _value_by_value_csv(["t", "value"], zip(values, other))

    def test_integer_column(self):
        rows = [(p, v) for p, v in zip(range(2, 2 + len(SPECIAL_VALUES)),
                                       SPECIAL_VALUES)]
        assert cli._csv(["p", "ratio"], rows) == _value_by_value_csv(["p", "ratio"], rows)

    def test_matrix_rows_across_blocks(self):
        rng = np.random.default_rng(6)
        for shape in ((3, 27), (cli._CSV_BLOCK, 3), (5, cli._CSV_BLOCK + 1)):
            mat = rng.standard_normal(shape)
            mat[0, :2] = [-0.0, math.nan]
            header = [f"c{j}" for j in range(shape[1])]
            assert cli._csv(header, mat) == _value_by_value_csv(header, mat)

    def test_ragged_rows_are_refused(self):
        with pytest.raises(ValueError):
            cli._csv(["a", "b"], [(1.0, 2.0), (3.0,)])

    def test_zero_rows(self):
        assert cli._csv(["re", "im"], []) == "re,im\n"
        assert cli._csv(["c0"], np.zeros((0, 1))) == "c0\n"

    def test_complex_values(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        mat[0, :4] = [complex(-0.0, -0.0), complex(math.nan, math.inf),
                      complex(5e-324, -math.inf), 1j]
        header = [f"c{j}" for j in range(9)]
        assert cli._csv(header, mat) == _value_by_value_csv(header, mat)

    @pytest.mark.parametrize("columns", [1, 2, 3, 100])
    def test_array_matches_rows_across_block_edges(self, columns):
        size = max(1, cli._CSV_BLOCK // columns)  # rows per block
        rng = np.random.default_rng(columns)
        header = [f"c{j}" for j in range(columns)]
        counts = {0, 1, size - 1, size, size + 1, 2 * size - 1, 2 * size, 2 * size + 1}
        for count in sorted(counts):
            mat = rng.standard_normal((count, columns)) * \
                10.0 ** rng.integers(-300, 300, (count, columns))
            special = min(mat.size, len(SPECIAL_VALUES))
            mat.flat[:special] = SPECIAL_VALUES[:special]
            text = cli._csv(header, mat)
            assert text == cli._csv(header, zip(*mat.T)), count
            assert text == _value_by_value_csv(header, mat), count
            assert text.count("\n") == count + 1

    def test_a_million_values_match_the_reference(self):
        rng = np.random.default_rng(22)
        powers = [float(f"1e{j}") for j in range(-307, 309)]
        values = np.concatenate([
            rng.integers(0, 2**64, 980_000, dtype=np.uint64).view(float),
            _bit_neighbours(powers, 3),
            1 + (2 * np.arange(2**12) + 1) * 2.0**-17,  # exact decimal ties
            # where %.17g switches between styles f and e
            _bit_neighbours([1e16, 1e17, 1e-4, 1e-5], 2000),
            np.arange(10**16 - 2000, 10**16 + 2000, dtype=np.int64).astype(float),
            np.arange(10**17 - 20000, 10**17 + 20000, 16, dtype=np.int64).astype(float),
        ])
        # a sign bit flipped by bits: arithmetic on a signalling nan warns
        signs = rng.integers(0, 2, values.size, dtype=np.uint64) << np.uint64(63)
        values = (values.view(np.uint64) ^ signs).view(float)
        values[rng.random(values.size) < 0.01] = 0.0
        values[rng.random(values.size) < 0.01] = -0.0
        mat = rng.permutation(values)[:values.size // 4 * 4].reshape(-1, 4)
        assert mat.size >= 10**6
        header = ["a", "b", "c", "d"]
        assert cli._csv(header, mat) == _value_by_value_csv(header, mat)

    def test_complex_special_parts_match_the_reference(self):
        rng = np.random.default_rng(23)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan]
        count = 3000
        re = rng.standard_normal(count) * 10.0 ** rng.integers(-20, 20, count)
        im = rng.standard_normal(count) * 10.0 ** rng.integers(-20, 20, count)
        im[::2] = rng.choice(special, count // 2)
        re[::3] = rng.choice(special, len(re[::3]))
        mat = np.empty((count // 3, 3), dtype=complex)
        mat.real.flat, mat.imag.flat = re, im
        mat.real[0, 0], mat.imag[0, 0] = -0.0, -0.0
        header = ["c0", "c1", "c2"]
        assert cli._csv(header, mat) == _value_by_value_csv(header, mat)
        assert cli._csv(header, zip(*mat.T)) == _value_by_value_csv(header, mat)

    def test_digits_and_exponent_are_those_percent_prints(self):
        rng = np.random.default_rng(24)
        values = np.abs(np.concatenate([
            rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(float),
            _bit_neighbours([float(f"1e{j}") for j in range(-300, 300)], 2)]))
        d, x, certified = g17.digits(values)
        for value, digits, exponent in zip(values[certified].tolist(),
                                           d[certified].tolist(),
                                           x[certified].tolist()):
            mantissa, printed = ("%.16e" % value).split("e")
            assert (digits, exponent) == \
                (int(mantissa.replace(".", "")), int(printed)), value
        # inside the table, only exact ties are refused: 18 significant
        # digits, the last a 5 (many between 2**46 and 2**53)
        inside = (values > 1e-270) & (values < 1e270)
        for value in values[inside & ~certified].tolist():
            exact = Decimal(value).normalize().as_tuple().digits
            assert (len(exact), exact[-1]) == (18, 5), value

    def test_certification_refuses_ties_and_accepts_the_benchmark_cardinals(self):
        ties = 1 + (2 * np.arange(2**16) + 1) * 2.0**-17
        assert ("%.17g" % ties[0], "%.17g" % ties[1]) == \
            ("1.0000076293945312", "1.0000228881835938")  # half to even
        assert not g17.digits(ties)[2].any()
        grid = 4081
        for family in BENCHMARK_FAMILIES:
            for p in (3, 7, 11):
                ts = np.linspace(0.0, p + 1.0, grid)
                values = np.concatenate((ts, cardinal_spline(family, p)(ts)))
                assert g17.digits(np.abs(values))[2].all(), (family, p)

    @pytest.mark.parametrize("columns", [2, 9])
    def test_complex_array_matches_rows_across_block_edges(self, columns):
        size = cli._CSV_BLOCK // columns
        rng = np.random.default_rng(columns)
        header = [f"c{j}" for j in range(columns)]
        for count in (0, 1, size - 1, size, size + 1, 2 * size + 1):
            mat = rng.standard_normal((count, columns)) + \
                1j * rng.standard_normal((count, columns))
            special = min(mat.size, 4)
            mat.flat[:special] = [complex(-0.0, -0.0), complex(math.nan, math.inf),
                                  complex(5e-324, -math.inf), 1j][:special]
            text = cli._csv(header, zip(*mat.T))
            assert cli._csv(header, mat) == text, count
            # a column-major copy has rows that are not contiguous
            assert cli._csv(header, np.asfortranarray(mat)) == text, count

