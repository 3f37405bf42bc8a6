"""The benchmark's workloads: fixed lists of ``gbspec`` command lines.

Every job is one call of ``gbspec.cli.main(argv)``.  The inputs are fixed;
the seed only permutes the order of the jobs, so every seed does the same
work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"

#: every family/phase of the symbol-scan sweep, as (family, alpha)
SCAN_FAMILIES = (
    ("polynomial", None),
    ("hyperbolic", 0.1), ("hyperbolic", 1.0), ("hyperbolic", 10.0),
    ("hyperbolic", 30.0), ("hyperbolic", 100.0),
    ("trigonometric", 0.5), ("trigonometric", 1.5), ("trigonometric", 3.0),
)

#: 4081 = 48 * 85 + 1 points put the knots 0..p+1 of p = 3, 7, 11 on the grid
#: with an even number of steps per unit interval, so the checks can sum
#: integer translates (partition of unity) and integrate piece by piece
#: (Simpson's rule) without interpolation.
CARDINAL_GRID = 4081
CARDINAL_DEGREES = (3, 7, 11)


@dataclass(frozen=True)
class Job:
    """One CLI call and the parameters recorded with every result."""

    id: str
    argv: tuple[str, ...]
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def command(self) -> str:
        return self.argv[0]

    def arg(self, flag: str) -> str | None:
        """Value following ``flag`` in argv, or None."""
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return None

    def with_n(self, ns: list[int]) -> "Job":
        """The same distribution job with another ``--n`` list."""
        argv = list(self.argv)
        argv[argv.index("--n") + 1] = ",".join(str(n) for n in ns)
        return Job(self.id, tuple(argv), {**self.meta, "n": ns})


def _tag(family: str, alpha: float | None) -> str:
    return family if alpha is None else f"{family}({alpha:g})"


def _family_args(family: str, alpha: float | None) -> list[str]:
    return ["--family", family] + ([] if alpha is None else ["--alpha", repr(alpha)])


def _distribution(command: str, config: str, ns: list[int]) -> Job:
    path = CONFIG_DIR / config
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    meta = {"n": ns, "p": cfg["p"], "family": cfg["family"],
            "phase": cfg.get("alpha"), "mode": cfg["mode"], "d": cfg.get("d", 1)}
    if "nu" in cfg:
        meta["nu"] = cfg["nu"]
    argv = (command, "--config", str(path), "--n", ",".join(map(str, ns)))
    return Job(f"{command}:{path.stem}", argv, meta)


def dist_1d() -> list[Job]:
    return [
        # the paper's main 1D case: hyperbolic, non-nested, curved geometry
        _distribution("distribution", "1d_hyperbolic_geometry.json", [128, 256]),
        _distribution("distribution", "1d_trigonometric_nested.json", [128]),
        # beta != 0 makes the matrix non-symmetric: the eigvals path
        _distribution("distribution", "1d_polynomial_advection.json", [128]),
    ]


def dist_md() -> list[Job]:
    return [
        _distribution("distribution-md", "2d_hyperbolic_curved.json", [24, 36]),
        _distribution("distribution-md", "2d_polynomial_trigonometric.json", [24]),
        _distribution("distribution-md", "3d_hyperbolic.json", [10]),
    ]


def symbol_scan() -> list[Job]:
    jobs = []
    for family, alpha in SCAN_FAMILIES:
        tag = _tag(family, alpha)
        for p in range(2, 13):
            meta = {"p": p, "family": family, "phase": alpha}
            jobs.append(Job(f"bounds:{tag}:p{p}",
                            ("bounds", "--p", str(p), *_family_args(family, alpha)),
                            meta))
        for p in CARDINAL_DEGREES:
            meta = {"p": p, "family": family, "phase": alpha, "grid": CARDINAL_GRID}
            jobs.append(Job(f"cardinal:{tag}:p{p}",
                            ("cardinal", "--p", str(p), "--grid", str(CARDINAL_GRID),
                             *_family_args(family, alpha)), meta))
    for family, alpha in (("polynomial", None), ("hyperbolic", 10.0)):
        meta = {"p": [2, 14], "family": family, "phase": alpha}
        jobs.append(Job(f"decay:{_tag(family, alpha)}",
                        ("decay", "--pmin", "2", "--pmax", "14",
                         *_family_args(family, alpha)), meta))
    for kind in ("h", "g", "f"):
        meta = {"p": 5, "family": "hyperbolic", "phase": 10.0, "kind": kind}
        jobs.append(Job(f"symbol:{kind}:hyperbolic(10):p5",
                        ("symbol", "--kind", kind, "--p", "5", "--grid", "512",
                         *_family_args("hyperbolic", 10.0)), meta))
    jobs.append(Job("toeplitz:f:polynomial:p2:m1024",
                    ("toeplitz", "--symbol", "f", "--p", "2", "--m", "1024", "--eig",
                     *_family_args("polynomial", None)),
                    {"p": 2, "family": "polynomial", "phase": None, "m": 1024}))
    return jobs


WORKLOADS = {
    "dist-1d": dist_1d,
    "dist-md": dist_md,
    "symbol-scan": symbol_scan,
}

#: Ops that fail their checks at the commit that defined the benchmark,
#: all from the phase defects of ROADMAP item 3 (large hyperbolic phases
#: lose positivity or raise, small phases lose accuracy).  They stay in the
#: sweep: they are run, checked and counted in ``ok_rate``, but a failure of
#: one of them does not make the run incorrect.  A fixed one simply passes.
KNOWN_DEFECTS = frozenset(
    [f"bounds:hyperbolic(0.1):p{p}" for p in range(6, 13)]
    + [f"bounds:hyperbolic(30):p{p}" for p in range(2, 13)]
    + [f"bounds:hyperbolic(100):p{p}" for p in range(2, 13)]
    + ["bounds:trigonometric(0.5):p11", "bounds:trigonometric(0.5):p12"]
    + [f"cardinal:hyperbolic(30):p{p}" for p in CARDINAL_DEGREES]
    + [f"cardinal:hyperbolic(100):p{p}" for p in CARDINAL_DEGREES]
    + ["cardinal:hyperbolic(0.1):p7"]
    + ["cardinal:trigonometric(0.5):p7", "cardinal:trigonometric(0.5):p11"]
)


def workload_jobs(name: str, seed: int) -> list[Job]:
    """The workload's jobs in the order given by ``seed``."""
    jobs = WORKLOADS[name]()
    random.Random(seed).shuffle(jobs)
    return jobs


def setup_configs(name: str) -> list[str]:
    """Config files a workload loads, in a fixed order."""
    return sorted({job.arg("--config") for job in WORKLOADS[name]()
                   if job.arg("--config")})
