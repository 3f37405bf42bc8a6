"""Command-line front end: CSV/JSON emitters for every analysis.

Subcommands: cardinal, symbol, bounds, decay, assemble, eig, toeplitz,
distribution, distribution-md.  All numeric output is deterministic given the
configuration; JSON uses stable key order.  A CSV value is exactly C's
``%.17g`` of its double: style f for a decimal exponent X with
-4 <= X < 17, else style e with at least two exponent digits; trailing
zeros dropped, and the point when nothing follows it; ``-0``, ``nan`` and
``inf`` as C prints them; a complex value as ``re+imj``.  :mod:`g17`
prints blocks with numpy and certifies each value's rounding; exact
decimal ties, nan, inf, subnormals, magnitudes beyond its table and small
blocks are printed by ``%`` itself, so the bytes never depend on the path.
The distribution commands solve their n values one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from itertools import islice

import numpy as np

from . import exprparse
from .cardinal import cardinal_spline
from .collocation import (Geometry, Problem, _pullback, assemble,
                          assemble_terms, collocation_terms, greville_samples)
from .errors import GbspecError, NumericalError, UsageError
from .multidim import DirectionSymbols, direction_bases, problem_sampler
from .sections import SectionFamily, polynomial
from .spectral import (ToeplitzSpec, check_order, check_outlier_eps,
                       eigenvalues_dense, toeplitz_eigenvalues, toeplitz_view,
                       weyl_report)
from .symbols import MIN_BOUNDS_GRID, bounds_report, decay_ratios, symbol_fn

_FAMILY_NAMES = ("polynomial", "hyperbolic", "trigonometric")
#: values a CSV block: g17.lines peaks at about 150 bytes of temporaries a
#: value, 0.6 MiB a block; blocks of 1024 and of 8192 values print the
#: 4081-row cardinal output slower
_CSV_BLOCK = 4096


def worker_count() -> int:
    """Threads the distribution commands use over their n values: always 1."""
    return 1


@contextlib.contextmanager
def _writing(path: str):
    """Refuse, in one line, an output path that cannot be written."""
    try:
        yield
    except OSError as exc:
        raise GbspecError(f"cannot write {path!r}: {exc}") from None


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _blocks(rows, size: int):
    """Successive arrays of at most ``size`` rows of a 2-D array or a row iterable."""
    if isinstance(rows, np.ndarray):
        for start in range(0, len(rows), size):
            yield rows[start:start + size]
        return
    rows = iter(rows)
    while block := list(islice(rows, size)):
        # numpy converts a few long columns faster than many short rows
        yield np.array(list(zip(*block, strict=True))).T


def _csv(header: list[str], rows) -> str:
    """The header line, then one line per row of ``len(header)`` values.

    ``rows`` is a 2-D array or an iterable of rows.  A value prints as
    ``%.17g`` of its float, a complex one as ``re+imj`` with both parts so
    (:func:`g17.lines`).  Rows are formatted a block at a time, so only one
    block's temporaries exist at once.
    """
    # imported here: a process that prints no CSV never compiles the writer
    from . import g17

    blocks = _blocks(rows, max(1, _CSV_BLOCK // max(1, len(header))))
    return "".join([",".join(header) + "\n", *map(g17.lines, blocks)])


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def make_family(name: str, alpha: float | None) -> SectionFamily:
    if name not in _FAMILY_NAMES:
        raise GbspecError(f"unknown family {name!r}; choose from {_FAMILY_NAMES}")
    if name == "polynomial":
        return polynomial()
    if alpha is None:
        raise GbspecError(f"family {name!r} requires --alpha")
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise GbspecError(f"family {name!r} needs a numeric alpha, got {alpha!r}")
    return SectionFamily(name, float(alpha))


def _require(cfg: dict, key: str, kinds, where: str):
    if key not in cfg:
        raise GbspecError(f"{where}: missing required key {key!r}")
    # a JSON true is a bool, which Python counts as an int
    if not isinstance(cfg[key], kinds) or isinstance(cfg[key], bool):
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


def _geometry_config(cfg: dict, where: str) -> dict | None:
    """The ``geometry`` object of a config, None for the identity."""
    if cfg.get("geometry") is None:
        return None
    return _require(cfg, "geometry", dict, where)


def load_problem_1d(cfg: dict):
    """Validate a d=1 problem config: its Problem, Geometry, family, mode and degree.

    Explicit ``G1`` and ``G2`` strings are taken as the derivatives of G.
    """
    # a JSON true or 1.0 equals 1 but is no dimension
    if "d" in cfg and _require(cfg, "d", int, "config") != 1:
        raise GbspecError(f"expected a 1D config, got d = {cfg['d']}")
    where = "1D config"
    kappa = _require(cfg, "kappa", str, where)
    beta = _require(cfg, "beta", str, where)
    gamma = _require(cfg, "gamma", str, where)
    family = make_family(_require(cfg, "family", str, where), cfg.get("alpha"))
    mode = _require(cfg, "mode", str, where)
    p = _require(cfg, "p", int, where)
    kappa, beta, gamma = map(exprparse.parse, (kappa, beta, gamma))
    problem = Problem(1, ((kappa,),), (beta,), gamma, (family,), (p,), (1,), mode)
    geo_cfg = _geometry_config(cfg, where)
    if geo_cfg is None:
        geometry = Geometry.identity(1)
    else:
        g = exprparse.parse(_require(geo_cfg, "G", str, "geometry"))
        g1, g2 = (exprparse.parse(geo_cfg[k]) if geo_cfg.get(k) else None
                  for k in ("G1", "G2"))
        geometry = Geometry(1, (g,), None if g1 is None else ((g1,),),
                            None if g2 is None else (((g2,),),))
    return problem, geometry, family, mode, p


def load_problem_md(cfg: dict) -> tuple[Problem, Geometry]:
    d = cfg.get("d")
    if d not in (2, 3):
        raise GbspecError(f"expected a multidimensional config, got d = {d}")
    _require(cfg, "d", int, "config")  # 2.0 equals 2 but is no dimension
    where = f"{d}D config"
    kmat = _require(cfg, "K", list, where)
    beta = _require(cfg, "beta", list, where)
    gamma = _require(cfg, "gamma", str, where)
    nu = _require(cfg, "nu", list, where)
    degrees = _require(cfg, "p", list, where)
    fam_names = _require(cfg, "family", list, where)
    alphas = _require(cfg, "alpha", list, where) if "alpha" in cfg else [None] * d
    mode = _require(cfg, "mode", str, where)
    if not (len(beta) == len(nu) == len(degrees) == len(fam_names) == d):
        raise GbspecError(f"{where}: beta/nu/p/family must have {d} entries")
    for key in ("nu", "p"):
        if any(type(v) is not int for v in cfg[key]):  # bool is not an int here
            raise GbspecError(f"{where}: key {key!r} has the wrong type")
    if any(not isinstance(row, list) for row in kmat):
        raise GbspecError(f"{where}: key 'K' has the wrong type")
    families = tuple(make_family(nm, al) for nm, al in zip(fam_names, alphas))
    diffusion = tuple(
        tuple(exprparse.parse(e) for e in row) for row in kmat)
    problem = Problem(
        d=d, diffusion=diffusion,
        advection=tuple(exprparse.parse(e) for e in beta),
        gamma=exprparse.parse(gamma), families=families,
        degrees=tuple(degrees), nu=tuple(nu),
        mode=mode)
    geo_cfg = _geometry_config(cfg, where)
    if geo_cfg is None:
        geometry = Geometry.identity(d)
    else:
        comps = _require(geo_cfg, "G", list, "geometry")
        geometry = Geometry(d, tuple(exprparse.parse(c) for c in comps))
    return problem, geometry


def _coefficient_sampler(problem: Problem, geometry: Geometry):
    """The coefficient kappa(G)/G'^2 of a 1D symbol: the pullback at d = 1."""
    return lambda xs: _pullback(problem, geometry, xs[:, None])[2][:, 0, 0]


def _distribution_symbol(family: SectionFamily, mode: str, p: int):
    """Limit symbol of the scaled collocation sequence for the given mode."""
    return DirectionSymbols([p], [family], mode).f[0]


def _distribution(args, load) -> tuple[Problem, list[dict]]:
    """The problem of ``args.config``, read by ``load``, and the Weyl report
    of its scaled collocation matrix at each n, for any d."""
    cfg = load_config(args.config)
    ns, eps = _int_list(args.n), _float_list(args.eps)
    check_outlier_eps(eps)  # refuse a bad eps before any solve
    problem, geometry = load(cfg)[:2]
    # every refusal before the first solve: the bases apply the order cap,
    # which bounds the degree; the terms check the Jacobian at the Greville
    # points; then the sampler runs the symbol recursion, the moments and
    # the Jacobian check at the quadrature points
    bases = [direction_bases(problem, geometry, n) for n in ns]
    samples = [[greville_samples(b) for b in bs] for bs in bases]
    terms = [collocation_terms(problem, geometry, dirs) for dirs in samples]
    sampler = problem_sampler(problem, geometry)

    def solve(n: int, directions, terms) -> dict:
        a = assemble_terms(directions, terms)
        a /= n**2
        eigs = eigenvalues_dense(a)
        # free the matrix before the Weyl report samples the symbol, so
        # the samples can reuse its memory
        del a
        return {"n": n, **weyl_report(eigs, sampler, eps).to_dict()}

    return problem, [solve(*run) for run in zip(ns, samples, terms)]


def _int_list(text: str) -> list[int]:
    """The ``--n`` list, refused if it holds no value."""
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise GbspecError(f"expected a comma-separated integer list, got {text!r}")
    if not values:
        raise UsageError(f"--n needs at least one value, got {text!r}")
    return values


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError:
        raise GbspecError(f"expected a comma-separated float list, got {text!r}")


def _grid_size(count: int, least: int = 0) -> int:
    """The ``--grid`` value, refused below ``least``."""
    if count < least:
        raise UsageError(f"--grid must be >= {least}, got {count}")
    return count


def _grid(start: float, stop: float, count: int) -> np.ndarray:
    """``count`` evenly spaced points of ``[start, stop]``, for ``--grid``."""
    return np.linspace(start, stop, _grid_size(count))


def _cmd_cardinal(args) -> None:
    fam = make_family(args.family, args.alpha)
    cs = cardinal_spline(fam, args.p)
    ts = _grid(0.0, args.p + 1.0, args.grid)
    _write(args.out, _csv(["t", "value"], np.column_stack((ts, cs(ts)))))


def _cmd_symbol(args) -> None:
    fam = make_family(args.family, args.alpha)
    sym = symbol_fn(args.kind, args.p, fam)
    thetas = _grid(-math.pi, math.pi, args.grid)
    _write(args.out, _csv(["theta", "value"], np.column_stack((thetas, sym(thetas)))))


def _cmd_bounds(args) -> None:
    fam = make_family(args.family, args.alpha)
    grid = _grid_size(args.grid, MIN_BOUNDS_GRID)
    _write(args.out, _json(bounds_report(args.p, fam, grid).to_dict()))


def _cmd_decay(args) -> None:
    fam = make_family(args.family, args.alpha)
    degrees = range(args.pmin, args.pmax + 1)
    _write(args.out, _csv(["p", "ratio"], zip(degrees, decay_ratios(degrees, fam))))


def _build_system(args):
    cfg = load_config(args.config)
    problem, geometry = load_problem_1d(cfg)[:2]
    (basis,) = direction_bases(problem, geometry, args.n)
    return assemble(problem, geometry, basis)


def _cmd_assemble(args) -> None:
    system = _build_system(args)
    if args.normalized and args.part != "full":
        raise GbspecError("--normalized applies to --part full only "
                          "(the split parts are already scaled)")
    mat = system.full_matrix if args.part == "full" else getattr(system, args.part)
    if args.normalized:
        mat = system.scaled_matrix
    if args.format == "npy":
        if args.out in (None, "-"):
            raise GbspecError("--format npy requires --out")
        # through a file, so np.save adds no ".npy" to the path
        with _writing(args.out), open(args.out, "wb") as fh:
            np.save(fh, mat)
        return
    header = [f"c{j}" for j in range(mat.shape[1])]
    _write(args.out, _csv(header, mat))


def _cmd_eig(args) -> None:
    system = _build_system(args)
    mat = system.full_matrix if args.raw else system.scaled_matrix
    eigs = np.sort_complex(eigenvalues_dense(mat))
    _write(args.out, _csv(["re", "im"], np.column_stack((eigs.real, eigs.imag))))


def _cmd_toeplitz(args) -> None:
    fam = make_family(args.family, args.alpha)
    sym = symbol_fn(args.symbol, args.p, fam)
    check_order(args.m)  # before the matrix is built
    spec = ToeplitzSpec(sym.toeplitz_coefficients())
    if args.eig:
        eigs = np.sort_complex(toeplitz_eigenvalues(spec, args.m))
        _write(args.out, _csv(["re", "im"], np.column_stack((eigs.real, eigs.imag))))
        return
    # a read-only view: the CSV path makes no m-by-m copy of its own
    _write(args.out, _csv([f"c{j}" for j in range(args.m)],
                          toeplitz_view(spec, args.m)))


def _cmd_distribution(args) -> None:
    problem, runs = _distribution(args, load_problem_1d)
    (family,) = problem.families
    _write(args.out, _json({
        "d": 1, "p": problem.degrees[0], "family": family.tag,
        "alpha": family.phase, "mode": problem.mode, "runs": runs}))


def _cmd_distribution_md(args) -> None:
    problem, runs = _distribution(args, load_problem_md)
    _write(args.out, _json({
        "d": problem.d, "p": list(problem.degrees),
        "family": [f.tag for f in problem.families],
        "alpha": [f.phase for f in problem.families], "mode": problem.mode,
        "nu": list(problem.nu), "runs": runs}))


def _arg(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, kwargs


_OUT = _arg("--out", default=None)
_CONFIG = _arg("--config", required=True)
_N = _arg("--n", type=int, required=True)
_N_LIST = _arg("--n", required=True, help="comma-separated list of n values")
_P = _arg("--p", type=int, required=True)
_FAMILY = (_arg("--family", required=True, choices=_FAMILY_NAMES),
           _arg("--alpha", type=float, default=None,
                help="phase parameter (hyperbolic/trigonometric)"))

# name: (help, arguments in order, handler)
_COMMANDS = {
    "cardinal": ("cardinal spline values as CSV",
                 (*_FAMILY, _P, _arg("--grid", type=int, default=512), _OUT),
                 _cmd_cardinal),
    "symbol": ("symbol values on a theta grid as CSV",
               (_arg("--kind", required=True, choices=("h", "g", "f")), _P,
                *_FAMILY, _arg("--grid", type=int, default=512), _OUT),
               _cmd_symbol),
    "bounds": ("bound-violation report as JSON",
               (_P, *_FAMILY, _arg("--grid", type=int, default=4096), _OUT),
               _cmd_bounds),
    "decay": ("decay ratios f_p(pi)/max f_p over a degree range",
              (*_FAMILY, _arg("--pmin", type=int, default=2),
               _arg("--pmax", type=int, required=True), _OUT),
              _cmd_decay),
    "assemble": ("collocation matrix to CSV or npy",
                 (_CONFIG, _N,
                  _arg("--part", default="full",
                       choices=("full", "stiffness", "advection", "mass")),
                  _arg("--normalized", action="store_true",
                       help="divide the full matrix by n^2"),
                  _arg("--format", default="csv", choices=("csv", "npy")), _OUT),
                 _cmd_assemble),
    "eig": ("eigenvalues of the scaled collocation matrix",
            (_CONFIG, _N,
             _arg("--raw", action="store_true", help="skip the 1/n^2 normalization"),
             _OUT),
            _cmd_eig),
    "toeplitz": ("Toeplitz matrix of a symbol (or its spectrum)",
                 (_arg("--symbol", required=True, choices=("h", "g", "f")), _P,
                  *_FAMILY, _arg("--m", type=int, required=True),
                  _arg("--eig", action="store_true"), _OUT),
                 _cmd_toeplitz),
    "distribution": ("1D Weyl distribution report as JSON",
                     (_CONFIG, _N_LIST,
                      _arg("--eps", default="", help="comma-separated outlier epsilons"),
                      _OUT),
                     _cmd_distribution),
    "distribution-md": ("multidimensional Weyl distribution report as JSON",
                        (_CONFIG, _N_LIST, _arg("--eps", default=""), _OUT),
                        _cmd_distribution_md),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with usage, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand or only ``command``'s."""
    top = _Parser(prog="gbspec",
                  description="GB-spline collocation matrices and spectral symbols")
    # the usage line lists every subcommand either way; the default metavar
    # is kept where it can be, since errors name the argument by its metavar
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, arguments, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
            p.set_defaults(handler=handler)
    return top


#: parsers :func:`main` has built, by command name (``None``: the full one)
_PARSERS: dict[str | None, argparse.ArgumentParser] = {}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call that names its command needs that subparser only
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _PARSERS.get(command)
    if parser is None:
        parser = _PARSERS[command] = build_parser(command)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except GbspecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # e.g. a --grid too large for the machine
        sys.stderr.write(f"out of memory: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
