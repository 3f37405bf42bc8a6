"""Compare the gbspec CLI of two source trees on a fixed set of commands.

Usage:  python3 tools/golden_cli.py SRC_A SRC_B

SRC_A and SRC_B are checkouts of this repository (each holding
``src/gbspec``).  Every command below runs once against each tree, in a
fresh interpreter with ``PYTHONPATH=<tree>/src``; the configurations come
from this checkout's ``gbbench/configs``, so both trees read the same files.
Four more 1D configurations are written to a temporary directory: one
with diffusion, advection and reaction terms and a curved geometry, since
two-term sums cannot show a change in the order the terms are added, two
at degrees 6 and 7, whose short knot vectors (n < 2p+2) and boundary
splines the benchmark configurations do not reach, and a nested degree-7
one whose effective phase 1/n is small.  One line per command reports
``same`` or which of stdout, stderr and exit code differ; when the two
stdouts differ and hold the same count of numbers, the line also gives
the largest absolute difference between them, and that difference
relative to the largest magnitude among the first stdout's numbers (the
max-norm relative difference, which shows a rounding-level change in
entries of any size).  When both stdouts parse
as JSON, one more line per differing field names it by its path, with
the two values, e.g. ``runs[1].outliers.0.001: 69 -> 68``.

Then every command runs again against SRC_B, all in one interpreter
through ``gbspec.cli.main``: in list order, then in reverse.  Each call's
stdout, stderr and exit code must equal its fresh-interpreter ones, so
state that one call leaves for the next (a kept parser or recursion level,
say) cannot change an answer; each differing call gets a line.  The exit
code is 1 if any command differs in either comparison, else 0.

Standard library only.  Thread counts are pinned to 1 so that the run stays
small and both trees see the same environment.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "gbbench" / "configs"


def _cfg(name: str) -> str:
    return str(CONFIGS / name)


_CURVED = _cfg("1d_hyperbolic_geometry.json")
_ADVECTION = _cfg("1d_polynomial_advection.json")
_ALL_TERMS = "1d_all_terms.json"
_TRIG_P7 = "1d_trigonometric_p7.json"
_HYP_P6 = "1d_hyperbolic_p6.json"
_HYP_P7_NESTED = "1d_hyperbolic_p7_nested.json"
TEMP_CONFIGS = {
    _ALL_TERMS: {
        "d": 1, "kappa": "1+x^2", "beta": "sin(6*x)-1/2", "gamma": "1+x",
        "family": "hyperbolic", "alpha": 3.0, "mode": "nested", "p": 4,
        "geometry": {"G": "(2*x+x^3)/3"},
    },
    _TRIG_P7: {
        "d": 1, "kappa": "1+x", "beta": "1", "gamma": "0",
        "family": "trigonometric", "alpha": 2.0, "mode": "nested", "p": 7,
    },
    _HYP_P6: {
        "d": 1, "kappa": "1", "beta": "0", "gamma": "1",
        "family": "hyperbolic", "alpha": 3.0, "mode": "nonnested", "p": 6,
    },
    _HYP_P7_NESTED: {
        "d": 1, "kappa": "1", "beta": "0", "gamma": "0",
        "family": "hyperbolic", "alpha": 1.0, "mode": "nested", "p": 7,
    },
}

COMMANDS: list[list[str]] = [
    # the six benchmark distribution jobs, with the benchmark's n lists
    ["distribution", "--config", _CURVED, "--n", "128,256"],
    ["distribution", "--config", _cfg("1d_trigonometric_nested.json"), "--n", "128"],
    ["distribution", "--config", _ADVECTION, "--n", "128"],
    ["distribution-md", "--config", _cfg("2d_hyperbolic_curved.json"), "--n", "24,36"],
    ["distribution-md", "--config", _cfg("2d_polynomial_trigonometric.json"),
     "--n", "24"],
    ["distribution-md", "--config", _cfg("3d_hyperbolic.json"), "--n", "10"],
    # 1D Weyl reports at n that are not powers of two, where the interval
    # widths of the uniform grid differ in their last bits
    ["distribution", "--config", _CURVED, "--n", "24,36"],
    # outlier counts, which the benchmark's jobs (no --eps) do not print
    ["distribution", "--config", _ADVECTION, "--n", "64,128", "--eps",
     "0.001,0.1,1"],
    ["distribution-md", "--config", _cfg("2d_hyperbolic_curved.json"), "--n",
     "24", "--eps", "0.1,1,5"],
    # a negative outlier eps, which is refused
    ["distribution", "--config", _ADVECTION, "--n", "64", "--eps", "-1"],
    # 1D assembly: every part, the normalized matrix, a non-symmetric case
    *[["assemble", "--config", _CURVED, "--n", "24", "--part", part]
      for part in ("full", "stiffness", "advection", "mass")],
    ["assemble", "--config", _CURVED, "--n", "24", "--normalized"],
    ["assemble", "--config", _ADVECTION, "--n", "16"],
    ["assemble", "--config", _ALL_TERMS, "--n", "24"],
    ["eig", "--config", _ALL_TERMS, "--n", "24"],
    ["eig", "--config", _CURVED, "--n", "32"],
    ["eig", "--config", _ADVECTION, "--n", "32", "--raw"],
    ["cardinal", "--family", "hyperbolic", "--alpha", "10", "--p", "5",
     "--grid", "257"],
    ["symbol", "--kind", "g", "--p", "4", "--family", "trigonometric",
     "--alpha", "1.2", "--grid", "128"],
    ["bounds", "--p", "5", "--family", "hyperbolic", "--alpha", "10",
     "--grid", "512"],
    ["decay", "--family", "polynomial", "--pmin", "2", "--pmax", "10"],
    ["toeplitz", "--symbol", "f", "--p", "3", "--family", "hyperbolic",
     "--alpha", "10", "--m", "12"],
    ["toeplitz", "--symbol", "g", "--p", "3", "--family", "polynomial",
     "--m", "8", "--eig"],
    # high degrees, a tiny phase, g and f through the derivative
    # recurrence, and a complex Toeplitz matrix
    ["cardinal", "--family", "polynomial", "--p", "11", "--grid", "300"],
    ["cardinal", "--family", "trigonometric", "--alpha", "1.5", "--p", "11",
     "--grid", "300"],
    ["cardinal", "--family", "hyperbolic", "--alpha", "1e-9", "--p", "7",
     "--grid", "300"],
    ["bounds", "--p", "12", "--family", "polynomial"],
    ["decay", "--family", "hyperbolic", "--alpha", "10", "--pmin", "2",
     "--pmax", "14"],
    ["toeplitz", "--symbol", "g", "--p", "5", "--family", "hyperbolic",
     "--alpha", "3", "--m", "9"],
    ["symbol", "--kind", "f", "--p", "7", "--family", "trigonometric",
     "--alpha", "2", "--grid", "200"],
    # CSV output over several blocks of rows (2-column files: 2048 rows a
    # block) or of columns (a 100-column matrix: 40 rows a block)
    ["cardinal", "--family", "hyperbolic", "--alpha", "10", "--p", "7",
     "--grid", "4097"],
    ["symbol", "--kind", "h", "--p", "5", "--family", "trigonometric",
     "--alpha", "1.5", "--grid", "5000"],
    ["toeplitz", "--symbol", "f", "--p", "2", "--family", "polynomial",
     "--m", "100"],
    ["toeplitz", "--symbol", "f", "--p", "2", "--family", "polynomial",
     "--m", "300", "--eig"],
    # degree 6 and 7 bases, with n below and above 2p+2
    ["eig", "--config", _TRIG_P7, "--n", "9"],
    ["eig", "--config", _TRIG_P7, "--n", "40"],
    ["assemble", "--config", _HYP_P6, "--n", "11"],
    ["eig", "--config", _HYP_P6, "--n", "64"],
    # reflection-symmetric matrices at sizes the benchmark does not reach:
    # even radices in 3D, odd orders of a Toeplitz and of a 1D system
    ["distribution-md", "--config", _cfg("3d_hyperbolic.json"), "--n", "9"],
    ["toeplitz", "--symbol", "f", "--p", "2", "--family", "polynomial",
     "--m", "301", "--eig"],
    ["eig", "--config", _HYP_P6, "--n", "63"],
    # phases the former section basis got wrong or refused, and the
    # refusal above the largest supported hyperbolic phase
    ["cardinal", "--family", "hyperbolic", "--alpha", "50", "--p", "3",
     "--grid", "300"],
    ["bounds", "--p", "9", "--family", "hyperbolic", "--alpha", "0.1"],
    ["cardinal", "--family", "trigonometric", "--alpha", "0.5", "--p", "11",
     "--grid", "300"],
    ["cardinal", "--family", "hyperbolic", "--alpha", "100", "--p", "3"],
    ["eig", "--config", _HYP_P7_NESTED, "--n", "256"],
    # the largest supported phase at a high degree, whose f has a top
    # coefficient 1e-26 times its largest, and the order cap of the CSV path
    ["bounds", "--p", "14", "--family", "hyperbolic", "--alpha", "76"],
    ["toeplitz", "--symbol", "f", "--p", "2", "--family", "polynomial",
     "--m", "4097"],
    # parser paths: usage, help and errors, with and without a command
    [],
    ["-h"],
    ["bogus"],
    ["bounds", "-h"],
    ["bounds", "--p", "3", "--family", "polynomial", "--bogus"],
    ["bounds", "--p", "x", "--family", "polynomial"],
    ["bounds", "--p", "3", "--family", "cubic"],
    ["bounds", "--p", "3", "--family", "polynomial", "--grid", "10"],
]

_RUN = "import sys; from gbspec.cli import main; sys.exit(main(sys.argv[1:]))"
# reads a JSON list of argument lists; writes [stdout, stderr, exit] of each
_RUN_ALL = """
import contextlib, io, json, sys, traceback
from gbspec.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    results.append([out.getvalue(), err.getvalue(), code])
json.dump(results, sys.stdout)
"""
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def largest_difference(a: bytes, b: bytes) -> tuple[float, float] | None:
    """Largest absolute difference between the numbers of two outputs, and
    that difference over the largest finite magnitude among those of ``a``.

    None if they hold different counts of numbers.  Equal infinities and
    two nans count as no difference.
    """
    xs, ys = ([float(m) for m in _NUMBER.findall(out)] for out in (a, b))
    if len(xs) != len(ys):
        return None
    gap = max((0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(x - y)
               for x, y in zip(xs, ys)), default=0.0)
    scale = max((abs(x) for x in xs if math.isfinite(x)), default=0.0)
    return gap, gap / scale if scale else (math.inf if gap else 0.0)


def json_changes(a: bytes, b: bytes) -> list[str]:
    """``path: old -> new`` for each differing field of two JSON outputs.

    Empty unless both outputs parse as JSON.  Objects with the same keys
    and arrays of the same length are compared field by field; any other
    pair that differs is one change.
    """
    try:
        x, y = json.loads(a), json.loads(b)
    except ValueError:
        return []
    changes: list[str] = []

    def walk(path: str, x, y) -> None:
        if isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
            for key in x:
                walk(f"{path}.{key}" if path else key, x[key], y[key])
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for i, (u, v) in enumerate(zip(x, y)):
                walk(f"{path}[{i}]", u, v)
        elif json.dumps(x) != json.dumps(y):
            changes.append(f"{path or '(output)'}: {json.dumps(x)} -> {json.dumps(y)}")

    walk("", x, y)
    return changes


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def run(tree: Path, argv: list[str], cwd: str) -> tuple[bytes, bytes, int]:
    proc = subprocess.run([sys.executable, "-c", _RUN, *argv], env=_env(tree),
                          cwd=cwd, capture_output=True, check=False)
    return proc.stdout, proc.stderr, proc.returncode


def run_in_one_process(tree: Path, argvs: list[list[str]],
                       cwd: str) -> list[tuple[bytes, bytes, int]]:
    """``run`` of every argument list in turn, all in one interpreter."""
    proc = subprocess.run([sys.executable, "-c", _RUN_ALL], env=_env(tree), cwd=cwd,
                          input=json.dumps(argvs).encode(), capture_output=True,
                          check=True)
    return [(out.encode(), err.encode(), code)
            for out, err, code in json.loads(proc.stdout)]


def _label(cmd: list[str]) -> str:
    return " ".join(Path(c).name if c.startswith("/") else c
                    for c in cmd) or "(no arguments)"


def _differing(a, b) -> list[str]:
    return [name for name, x, y in zip(("stdout", "stderr", "exit"), a, b) if x != y]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "src" / "gbspec").is_dir():
            sys.stderr.write(f"error: {tree} has no src/gbspec\n")
            return 2
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in TEMP_CONFIGS.items():
            Path(tmp, name).write_text(json.dumps(cfg))
        results = [[run(tree, cmd, tmp) for tree in trees] for cmd in COMMANDS]
        together = run_in_one_process(trees[1], COMMANDS + COMMANDS[::-1], tmp)
    for cmd, (a, b) in zip(COMMANDS, results):
        diffs = _differing(a, b)
        gap = largest_difference(a[0], b[0]) if "stdout" in diffs else None
        print(f"{'DIFF ' + ','.join(diffs) if diffs else 'same'}: {_label(cmd)}"
              f" (exit {a[2]}, {len(a[0])} bytes)"
              + ("" if gap is None else
                 f" largest difference {gap[0]:.3g} (relative {gap[1]:.3g})"))
        if "stdout" in diffs:
            for change in json_changes(a[0], b[0]):
                print(f"    {change}")
        differing += bool(diffs)
    print(f"{len(COMMANDS) - differing}/{len(COMMANDS)} commands byte-identical")
    fresh = [b for _, b in results]
    count = len(COMMANDS)
    for order, cmds, expected, got in (
            ("in order", COMMANDS, fresh, together[:count]),
            ("reversed", COMMANDS[::-1], fresh[::-1], together[count:])):
        mismatched = 0
        for cmd, x, y in zip(cmds, expected, got):
            if diffs := _differing(x, y):
                print(f"DIFF {','.join(diffs)} in one process, {order}: {_label(cmd)}")
                mismatched += 1
        print(f"{count - mismatched}/{count} commands byte-identical"
              f" in one process, {order}")
        differing += mismatched
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
