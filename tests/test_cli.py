import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gbspec import cli
from gbspec.cli import main
from gbspec.sections import SectionFamily, polynomial
from gbspec.spectral import ToeplitzSpec, eigenvalues_dense, toeplitz
from gbspec.symbols import symbol_fn
from oracles import mp_nested_shape_error

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
        # the one m-by-m array left is the parity workspace of
        # eigenvalues_dense (8 MiB at m = 1024); a dense copy of the matrix
        # would add 8 MiB more
        argv = ["toeplitz", "--symbol", "f", "--p", "2", "--family",
                "polynomial", "--m", "1024", "--eig"]
        main([*argv[:-3], "8", "--eig"])  # import and build outside the trace
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(capsys.readouterr().out.splitlines()) == 1025
        assert peak <= 9 * 2**20

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

    def test_decay_table(self, capsys):
        code, out = run(capsys, "decay", "--family", "polynomial",
                        "--pmin", "2", "--pmax", "6")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 5


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
      "--n", "4096"], ("gb_basis", "assemble")),
    (["assemble", "--config", str(CONFIGS / "1d_hyperbolic_geometry.json"),
      "--n", "4096"], ("gb_basis", "assemble")),
    (["toeplitz", "--symbol", "f", "--p", "2", "--family", "polynomial",
      "--m", "4097", "--eig"], ("toeplitz_view",)),
    (["toeplitz", "--symbol", "f", "--p", "2", "--family", "polynomial",
      "--m", "4097"], ("toeplitz_view",)),
], ids=["eig", "assemble", "toeplitz", "toeplitz-csv"])
def test_order_cap_is_checked_before_any_matrix(capsys, monkeypatch, argv, counted):
    calls = [_counted(monkeypatch, name) for name in counted]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: order 4097 exceeds cap 4096\n"
    assert calls == [[]] * len(counted)


def _counted(monkeypatch, name: str) -> list:
    """Wrap ``cli.<name>`` to record its calls; returns the call list."""
    calls = []
    inner = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
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
    """The former CSV emitter: one f-string per value."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


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

    def test_zero_rows(self):
        assert cli._csv(["re", "im"], []) == "re,im\n"
        assert cli._csv(["c0"], np.zeros((0, 1))) == "c0\n"

    def test_complex_values(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        mat[0, :4] = [complex(-0.0, -0.0), complex(math.nan, math.inf),
                      complex(5e-324, -math.inf), 1j]
        header = [f"c{j}" for j in range(9)]
        lines = [",".join(header)] + [
            ",".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in row) for row in mat]
        assert cli._csv(header, mat) == "\n".join(lines) + "\n"

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

