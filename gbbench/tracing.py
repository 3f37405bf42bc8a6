"""Traced run: each job's pipeline, called layer by layer, with spans.

The pipelines call the same public functions the CLI handlers call, in the
same order and with the same arguments, and wrap every call in one span.
The only call made from inside a layer is ``gb_basis`` within
``assemble_md``: ``multidim.gb_basis`` is swapped for a span-recording
wrapper while a pipeline runs, so the basis cost of the multidimensional
workload is seen, as a child of ``multidim.assemble_md``.
"""

from __future__ import annotations

import contextlib
import math
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from jobs import Job


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    peak_bytes: int = 0


class Recorder:
    """Spans and counters kept in memory; written out when the run ends.

    ``enabled=False`` records nothing (the untraced reference run).  With
    ``memory=True`` every span also records the ``tracemalloc`` peak above
    the allocation level at its start; nested spans fold their peak into
    their parent's.
    """

    def __init__(self, enabled: bool = True, memory: bool = False):
        self.enabled = enabled
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = ""
        self._stack: list[int] = []
        self._peaks: list[list[int]] = []  # [start level, peak] per open span

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1][1] = max(self._peaks[-1][1], peak)
            tracemalloc.reset_peak()
            self._peaks.append([current, current])
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.job))
        self._stack.append(index)
        try:
            yield
        finally:
            span = self.spans[index]
            span.end = time.perf_counter()
            self._stack.pop()
            if self.memory:
                start, peak = self._peaks.pop()
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                span.peak_bytes = peak - start
                if self._peaks:
                    self._peaks[-1][1] = max(self._peaks[-1][1], peak)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] += value


def _system_bytes(system) -> int:
    """Bytes of every array a CollocationSystem holds (computed, not measured)."""
    return sum(v.nbytes for v in vars(system).values() if isinstance(v, np.ndarray))


def _distribution_1d(cli, args, rec: Recorder) -> str:
    from gbspec.collocation import assemble, gb_basis
    from gbspec.spectral import eigenvalues_dense, product_symbol_sampler, weyl_report

    with rec.span("cli.load_problem"):
        cfg = cli.load_config(args.config)
        problem, geometry, family, mode, p = cli.load_problem_1d(cfg)
    ns, eps = cli._int_list(args.n), cli._float_list(args.eps)
    with rec.span("symbols.symbol_fn"):
        sym = cli._distribution_symbol(family, mode, p)
    sampler = rec.wrap("spectral.product_symbol_sampler", product_symbol_sampler(
        cli._coefficient_sampler(problem, geometry), sym))
    reports = []
    for n in ns:
        with rec.span("collocation.gb_basis"):
            basis = gb_basis(n, p, family, mode)
        with rec.span("collocation.assemble"):
            system = assemble(problem, geometry, basis)
        rec.count("collocation.assemble.bytes", _system_bytes(system))
        with rec.span("spectral.eigenvalues_dense"):
            eigs = eigenvalues_dense(system.scaled_matrix)
        rec.count("spectral.eigenvalues_dense.order3", float(eigs.size) ** 3)
        with rec.span("spectral.weyl_report"):
            reports.append(weyl_report(eigs, sampler, eps))
    return cli._json({
        "d": 1, "p": p, "family": family.tag, "alpha": family.phase,
        "mode": mode,
        "runs": [{"n": n, **rep.to_dict()} for n, rep in zip(ns, reports)],
    })


def _distribution_md(cli, args, rec: Recorder) -> str:
    from gbspec import multidim
    from gbspec.spectral import eigenvalues_dense, weyl_report

    with rec.span("cli.load_problem"):
        cfg = cli.load_config(args.config)
        problem, geometry = cli.load_problem_md(cfg)
    ns, eps = cli._int_list(args.n), cli._float_list(args.eps)
    with rec.span("multidim.DirectionSymbols"):
        symbols = multidim.DirectionSymbols(problem.degrees, problem.families,
                                            problem.mode)

    def sampler(count: int) -> np.ndarray:
        return multidim.md_symbol_samples(problem, geometry, count, symbols)

    sampler = rec.wrap("multidim.md_symbol_samples", sampler)
    reports = []
    original = multidim.gb_basis
    multidim.gb_basis = rec.wrap("collocation.gb_basis", original)
    try:
        for n in ns:
            with rec.span("multidim.assemble_md"):
                a = multidim.assemble_md(problem, geometry, n)
            a = a / n**2
            with rec.span("spectral.eigenvalues_dense"):
                eigs = eigenvalues_dense(a)
            rec.count("spectral.eigenvalues_dense.order3", float(eigs.size) ** 3)
            with rec.span("spectral.weyl_report"):
                reports.append(weyl_report(eigs, sampler, eps))
    finally:
        multidim.gb_basis = original
    return cli._json({
        "d": problem.d, "p": list(problem.degrees),
        "family": [f.tag for f in problem.families],
        "alpha": [f.phase for f in problem.families], "mode": problem.mode,
        "nu": list(problem.nu),
        "runs": [{"n": n, **rep.to_dict()} for n, rep in zip(ns, reports)],
    })


def _cardinal(cli, args, rec: Recorder) -> str:
    from gbspec.cardinal import cardinal_spline

    fam = cli.make_family(args.family, args.alpha)
    with rec.span("cardinal.cardinal_spline"):
        cs = cardinal_spline(fam, args.p)
    ts = np.linspace(0.0, args.p + 1.0, args.grid)
    with rec.span("sections.piecewise_eval"):
        values = cs(ts)
    return cli._csv(["t", "value"], zip(ts, values))


def _symbol(cli, args, rec: Recorder) -> str:
    from gbspec.symbols import symbol_fn

    fam = cli.make_family(args.family, args.alpha)
    thetas = np.linspace(-math.pi, math.pi, args.grid)
    with rec.span("symbols.symbol_fn"):
        values = symbol_fn(args.kind, args.p, fam)(thetas)
    return cli._csv(["theta", "value"], zip(thetas, values))


def _bounds(cli, args, rec: Recorder) -> str:
    from gbspec.symbols import bounds_report

    fam = cli.make_family(args.family, args.alpha)
    with rec.span("symbols.bounds_report"):
        report = bounds_report(args.p, fam, args.grid)
    return cli._json(report.to_dict())


def _decay(cli, args, rec: Recorder) -> str:
    from gbspec.symbols import decay_ratio

    fam = cli.make_family(args.family, args.alpha)
    rows = []
    for p in range(args.pmin, args.pmax + 1):
        with rec.span("symbols.decay_ratio"):
            rows.append((p, decay_ratio(p, fam)))
    return cli._csv(["p", "ratio"], rows)


def _toeplitz(cli, args, rec: Recorder) -> str:
    from gbspec.spectral import ToeplitzSpec, eigenvalues_dense, toeplitz
    from gbspec.symbols import symbol_fn

    fam = cli.make_family(args.family, args.alpha)
    with rec.span("symbols.symbol_fn"):
        sym = symbol_fn(args.symbol, args.p, fam)
    with rec.span("spectral.toeplitz"):
        mat = toeplitz(ToeplitzSpec(sym.toeplitz_coefficients()), args.m)
    with rec.span("spectral.eigenvalues_dense"):
        eigs = np.sort_complex(eigenvalues_dense(mat))
    rec.count("spectral.eigenvalues_dense.order3", float(eigs.size) ** 3)
    return cli._csv(["re", "im"], zip(eigs.real, eigs.imag))


_PIPELINES = {
    "distribution": _distribution_1d,
    "distribution-md": _distribution_md,
    "cardinal": _cardinal,
    "symbol": _symbol,
    "bounds": _bounds,
    "decay": _decay,
    "toeplitz": _toeplitz,
}


def run_pipelines(jobs: list[Job], rec: Recorder) -> tuple[float, dict[str, str | None]]:
    """Run every job's pipeline once; wall seconds and each job's output.

    A job whose pipeline raises gets ``None`` (the CLI run of the same job
    reports the failure; here it only has to be survived).
    """
    from gbspec import cli

    parser = cli.build_parser()
    outputs: dict[str, str | None] = {}
    start = time.perf_counter()
    for job in jobs:
        rec.job = job.id
        args = parser.parse_args(list(job.argv))
        try:
            with rec.span("job"):
                outputs[job.id] = _PIPELINES[job.command](cli, args, rec)
        except Exception:  # noqa: BLE001 - known defects raise; the CLI run counts them
            outputs[job.id] = None
    return time.perf_counter() - start, outputs


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Busy seconds, self seconds, call counts and memory peaks per layer."""
    total = defaultdict(float)
    child = defaultdict(float)
    calls = defaultdict(int)
    peak = defaultdict(int)
    for span in rec.spans:
        duration = span.end - span.start
        total[span.name] += duration
        calls[span.name] += 1
        peak[span.name] = max(peak[span.name], span.peak_bytes)
        if span.parent is not None:
            child[rec.spans[span.parent].name] += duration
    out = {f"{name}.s": total[name] for name in total}
    out.update({f"{name}.self_s": total[name] - child[name] for name in total})
    out.update({f"{name}.calls": float(calls[name]) for name in calls})
    out.update({f"{name}.peak_mb": peak[name] / 2**20 for name in peak})
    out.update(rec.counts)
    return out


def memory_peaks(jobs: list[Job]) -> dict[str, float]:
    """``tracemalloc`` peaks of the layers, from one pipeline run per dimension.

    For each dimension d, the first distribution job of d in ``jobs`` runs
    once at its smallest n.  Kept apart from the timed traced run, and this
    small, because tracemalloc slows the Python-level basis construction
    about six times over.
    """
    small = {}
    for job in jobs:
        if job.command in ("distribution", "distribution-md"):
            small.setdefault(job.meta["d"], job.with_n([min(job.meta["n"])]))
    if not small:
        return {}
    rec = Recorder(memory=True)
    tracemalloc.start()
    try:
        run_pipelines(list(small.values()), rec)
    finally:
        tracemalloc.stop()
    return {k: v for k, v in layer_metrics(rec).items() if k.endswith(".peak_mb")}
