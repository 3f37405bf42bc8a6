"""Command-line front end: CSV/JSON emitters for every analysis.

Subcommands: cardinal, symbol, bounds, decay, assemble, eig, toeplitz,
distribution, distribution-md.  All numeric output is deterministic given the
configuration; CSV uses 17 significant digits, JSON uses stable key order.
The distribution commands solve their n values one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import islice

import numpy as np

from . import exprparse
from .cardinal import cardinal_spline
from .collocation import (GeometryMap1D, ProblemCoefficients, assemble,
                          gb_basis, limit_family, transformed_coefficients)
from .errors import GbspecError, NumericalError
from .multidim import (DirectionSymbols, GeometryMapMD, ProblemMD,
                       assemble_md, md_symbol_samples)
from .sections import SectionFamily, polynomial
from .spectral import (ToeplitzSpec, eigenvalues_dense,
                       product_symbol_sampler, toeplitz, weyl_report)
from .symbols import bounds_report, decay_ratio, symbol_fn

_FAMILY_NAMES = ("polynomial", "hyperbolic", "trigonometric")
_CSV_BLOCK = 4096  # values per format operation


def worker_count() -> int:
    """Threads the distribution commands use over their n values: always 1."""
    return 1


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv(header: list[str], rows) -> str:
    """The header line, then one line per row of ``len(header)`` values.

    A value prints as ``%.17g`` of its float, a complex one as ``re+imj``
    with both parts so.  Rows are formatted a block at a time, one format
    string per block, so only one block's Python floats exist at once.
    """
    block_rows = max(1, _CSV_BLOCK // max(1, len(header)))
    lines = [",".join(header)]
    rows = iter(rows)
    while block := list(islice(rows, block_rows)):
        values = np.array(block)
        if np.iscomplexobj(values):
            field, values = "%.17g%+.17gj", values.view(float)
        else:
            field, values = "%.17g", values.astype(float)
        line = ",".join([field] * len(header))
        lines.append("\n".join([line] * len(block)) % tuple(values.ravel().tolist()))
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def make_family(name: str, alpha: float | None) -> SectionFamily:
    if name not in _FAMILY_NAMES:
        raise GbspecError(f"unknown family {name!r}; choose from {_FAMILY_NAMES}")
    if name == "polynomial":
        return polynomial()
    if alpha is None:
        raise GbspecError(f"family {name!r} requires --alpha")
    return SectionFamily(name, float(alpha))


def _require(cfg: dict, key: str, kinds, where: str):
    if key not in cfg:
        raise GbspecError(f"{where}: missing required key {key!r}")
    if not isinstance(cfg[key], kinds):
        raise GbspecError(f"{where}: key {key!r} has the wrong type")
    return cfg[key]


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise GbspecError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise GbspecError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise GbspecError("config must be a JSON object")
    return cfg


def load_problem_1d(cfg: dict):
    """Validate a d=1 problem config and build the model objects."""
    d = cfg.get("d", 1)
    if d != 1:
        raise GbspecError(f"expected a 1D config, got d = {d}")
    where = "1D config"
    kappa = _require(cfg, "kappa", str, where)
    beta = _require(cfg, "beta", str, where)
    gamma = _require(cfg, "gamma", str, where)
    family = make_family(_require(cfg, "family", str, where), cfg.get("alpha"))
    mode = _require(cfg, "mode", str, where)
    p = _require(cfg, "p", int, where)
    problem = ProblemCoefficients.from_strings(kappa, beta, gamma)
    geo_cfg = cfg.get("geometry")
    if geo_cfg is None:
        geometry = GeometryMap1D.identity()
    else:
        g = _require(geo_cfg, "G", str, "geometry")
        geometry = GeometryMap1D.from_strings(
            g, geo_cfg.get("G1"), geo_cfg.get("G2"))
    return problem, geometry, family, mode, p


def load_problem_md(cfg: dict) -> tuple[ProblemMD, GeometryMapMD]:
    d = cfg.get("d")
    if d not in (2, 3):
        raise GbspecError(f"expected a multidimensional config, got d = {d}")
    where = f"{d}D config"
    kmat = _require(cfg, "K", list, where)
    beta = _require(cfg, "beta", list, where)
    gamma = _require(cfg, "gamma", str, where)
    nu = _require(cfg, "nu", list, where)
    degrees = _require(cfg, "p", list, where)
    fam_names = _require(cfg, "family", list, where)
    alphas = cfg.get("alpha", [None] * d)
    mode = _require(cfg, "mode", str, where)
    if not (len(beta) == len(nu) == len(degrees) == len(fam_names) == d):
        raise GbspecError(f"{where}: beta/nu/p/family must have {d} entries")
    families = tuple(make_family(nm, al) for nm, al in zip(fam_names, alphas))
    diffusion = tuple(
        tuple(exprparse.parse(e) for e in row) for row in kmat)
    problem = ProblemMD(
        d=d, diffusion=diffusion,
        advection=tuple(exprparse.parse(e) for e in beta),
        gamma=exprparse.parse(gamma), families=families,
        degrees=tuple(int(q) for q in degrees), nu=tuple(int(v) for v in nu),
        mode=mode)
    geo_cfg = cfg.get("geometry")
    if geo_cfg is None:
        geometry = GeometryMapMD.identity(d)
    else:
        comps = _require(geo_cfg, "G", list, "geometry")
        geometry = GeometryMapMD(d, tuple(exprparse.parse(c) for c in comps))
    return problem, geometry


def _coefficient_sampler(problem: ProblemCoefficients, geometry: GeometryMap1D):
    return lambda xs: transformed_coefficients(problem, geometry, xs)[0]


def _distribution_symbol(family: SectionFamily, mode: str, p: int):
    """Limit symbol of the scaled collocation sequence for the given mode."""
    return symbol_fn("f", p, limit_family(family, mode))


def _run_distribution_1d(cfg: dict, ns: list[int], eps: list[float]) -> dict:
    problem, geometry, family, mode, p = load_problem_1d(cfg)
    sym = _distribution_symbol(family, mode, p)
    sampler = product_symbol_sampler(_coefficient_sampler(problem, geometry), sym)

    def solve(n: int):
        basis = gb_basis(n, p, family, mode)
        # keep no system alive while the Weyl report samples the symbol,
        # so the samples can reuse its memory
        eigs = eigenvalues_dense(assemble(problem, geometry, basis).scaled_matrix)
        return weyl_report(eigs, sampler, eps)

    reports = [solve(n) for n in ns]
    return {
        "d": 1, "p": p, "family": family.tag, "alpha": family.phase,
        "mode": mode,
        "runs": [{"n": n, **rep.to_dict()} for n, rep in zip(ns, reports)],
    }


def _run_distribution_md(cfg: dict, ns: list[int], eps: list[float]) -> dict:
    problem, geometry = load_problem_md(cfg)
    symbols = DirectionSymbols(problem.degrees, problem.families, problem.mode)

    def sampler(count: int) -> np.ndarray:
        return md_symbol_samples(problem, geometry, count, symbols)

    def solve(n: int):
        a = assemble_md(problem, geometry, n)
        a /= n**2
        eigs = eigenvalues_dense(a)
        # free the matrix before the Weyl report samples the symbol, so
        # the samples can reuse its memory
        del a
        return weyl_report(eigs, sampler, eps)

    reports = [solve(n) for n in ns]
    return {
        "d": problem.d, "p": list(problem.degrees),
        "family": [f.tag for f in problem.families],
        "alpha": [f.phase for f in problem.families], "mode": problem.mode,
        "nu": list(problem.nu),
        "runs": [{"n": n, **rep.to_dict()} for n, rep in zip(ns, reports)],
    }


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise GbspecError(f"expected a comma-separated integer list, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError:
        raise GbspecError(f"expected a comma-separated float list, got {text!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with usage, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="gbspec",
                  description="GB-spline collocation matrices and spectral symbols")
    sub = top.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", required=True, choices=_FAMILY_NAMES)
        p.add_argument("--alpha", type=float, default=None,
                       help="phase parameter (hyperbolic/trigonometric)")

    p = sub.add_parser("cardinal", help="cardinal spline values as CSV")
    add_family(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--out", default=None)

    p = sub.add_parser("symbol", help="symbol values on a theta grid as CSV")
    p.add_argument("--kind", required=True, choices=("h", "g", "f"))
    p.add_argument("--p", type=int, required=True)
    add_family(p)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bounds", help="bound-violation report as JSON")
    p.add_argument("--p", type=int, required=True)
    add_family(p)
    p.add_argument("--grid", type=int, default=4096)
    p.add_argument("--out", default=None)

    p = sub.add_parser("decay", help="decay ratios f_p(pi)/max f_p over a degree range")
    add_family(p)
    p.add_argument("--pmin", type=int, default=2)
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("assemble", help="collocation matrix to CSV or npy")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--part", default="full",
                   choices=("full", "stiffness", "advection", "mass"))
    p.add_argument("--normalized", action="store_true",
                   help="divide the full matrix by n^2")
    p.add_argument("--format", default="csv", choices=("csv", "npy"))
    p.add_argument("--out", default=None)

    p = sub.add_parser("eig", help="eigenvalues of the scaled collocation matrix")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--raw", action="store_true",
                   help="skip the 1/n^2 normalization")
    p.add_argument("--out", default=None)

    p = sub.add_parser("toeplitz", help="Toeplitz matrix of a symbol (or its spectrum)")
    p.add_argument("--symbol", required=True, choices=("h", "g", "f"))
    p.add_argument("--p", type=int, required=True)
    add_family(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eig", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("distribution", help="1D Weyl distribution report as JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--n", required=True, help="comma-separated list of n values")
    p.add_argument("--eps", default="", help="comma-separated outlier epsilons")
    p.add_argument("--out", default=None)

    p = sub.add_parser("distribution-md",
                       help="multidimensional Weyl distribution report as JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--n", required=True, help="comma-separated list of n values")
    p.add_argument("--eps", default="")
    p.add_argument("--out", default=None)
    return top


def _cmd_cardinal(args) -> None:
    fam = make_family(args.family, args.alpha)
    cs = cardinal_spline(fam, args.p)
    ts = np.linspace(0.0, args.p + 1.0, args.grid)
    _write(args.out, _csv(["t", "value"], zip(ts, cs(ts))))


def _cmd_symbol(args) -> None:
    fam = make_family(args.family, args.alpha)
    sym = symbol_fn(args.kind, args.p, fam)
    thetas = np.linspace(-math.pi, math.pi, args.grid)
    _write(args.out, _csv(["theta", "value"], zip(thetas, sym(thetas))))


def _cmd_bounds(args) -> None:
    fam = make_family(args.family, args.alpha)
    _write(args.out, _json(bounds_report(args.p, fam, args.grid).to_dict()))


def _cmd_decay(args) -> None:
    fam = make_family(args.family, args.alpha)
    rows = [(p, decay_ratio(p, fam)) for p in range(args.pmin, args.pmax + 1)]
    _write(args.out, _csv(["p", "ratio"], rows))


def _build_system(args):
    cfg = load_config(args.config)
    problem, geometry, family, mode, p = load_problem_1d(cfg)
    basis = gb_basis(args.n, p, family, mode)
    return assemble(problem, geometry, basis)


def _cmd_assemble(args) -> None:
    system = _build_system(args)
    if args.normalized and args.part != "full":
        raise GbspecError("--normalized applies to --part full only "
                          "(the split parts are already scaled)")
    mat = {"full": system.full_matrix, "stiffness": system.stiffness,
           "advection": system.advection, "mass": system.mass}[args.part]
    if args.normalized:
        mat = system.scaled_matrix
    if args.format == "npy":
        if args.out in (None, "-"):
            raise GbspecError("--format npy requires --out")
        np.save(args.out, mat)
        return
    header = [f"c{j}" for j in range(mat.shape[1])]
    _write(args.out, _csv(header, mat))


def _cmd_eig(args) -> None:
    system = _build_system(args)
    mat = system.full_matrix if args.raw else system.scaled_matrix
    eigs = np.sort_complex(eigenvalues_dense(mat))
    _write(args.out, _csv(["re", "im"], zip(eigs.real, eigs.imag)))


def _cmd_toeplitz(args) -> None:
    fam = make_family(args.family, args.alpha)
    sym = symbol_fn(args.symbol, args.p, fam)
    spec = ToeplitzSpec(sym.toeplitz_coefficients())
    mat = toeplitz(spec, args.m)
    if args.eig:
        eigs = np.sort_complex(eigenvalues_dense(mat))
        _write(args.out, _csv(["re", "im"], zip(eigs.real, eigs.imag)))
        return
    header = [f"c{j}" for j in range(mat.shape[1])]
    _write(args.out, _csv(header, mat))


def _cmd_distribution(args) -> None:
    cfg = load_config(args.config)
    report = _run_distribution_1d(cfg, _int_list(args.n), _float_list(args.eps))
    _write(args.out, _json(report))


def _cmd_distribution_md(args) -> None:
    cfg = load_config(args.config)
    report = _run_distribution_md(cfg, _int_list(args.n), _float_list(args.eps))
    _write(args.out, _json(report))


_HANDLERS = {
    "cardinal": _cmd_cardinal,
    "symbol": _cmd_symbol,
    "bounds": _cmd_bounds,
    "decay": _cmd_decay,
    "assemble": _cmd_assemble,
    "eig": _cmd_eig,
    "toeplitz": _cmd_toeplitz,
    "distribution": _cmd_distribution,
    "distribution-md": _cmd_distribution_md,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _HANDLERS[args.command](args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except GbspecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
