"""Benchmark runner for gbspec: one workload, end-to-end or traced.

    python3 gbbench/run.py --workload dist-1d --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with tracing
off: set-up time (median over fresh processes), the first pass over the
job list (mean over processes), the mean of the later passes, peak RSS
and the share of ops that pass their checks.  Times are wall times, except
on SCALED_WORKLOADS, where they are scaled to a reference host speed by a
calibration probe run between ops (see README.md).  ``--trace 1`` gives the
per-layer metrics instead, from a traced run of each job's pipeline, an
untraced run of the same pipelines (the tracing overhead), a tracemalloc run
at the smallest sizes and a single-threaded reference pass in a child
process.

Every op's output is checked outside the timed region (see checks.py).
The last line of stdout is the result object; the full record (environment,
per-op verdicts, spans) is written to .gbbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

from checks import Outcome, check
from jobs import BENCH_DIR, KNOWN_DEFECTS, ROOT, WORKLOADS, Job, workload_jobs

#: fresh processes timed for setup_s; the median is reported
SETUP_REPEATS = 9
#: passes after the first one, at least, whatever --seconds says
MIN_WARM_PASSES = 2
#: first passes timed for cold_s: the workload's process plus fresh child
#: processes, at least COLD_MIN and then more, up to COLD_REPEATS, while the
#: first passes fit in COLD_SHARE of --seconds
COLD_MIN = 2
COLD_REPEATS = 5
COLD_SHARE = 0.4
#: workloads timed at a reference host speed (see README.md): their ops are
#: short and single-threaded, so a probe between ops sees the speed they saw
SCALED_WORKLOADS = frozenset({"symbol-scan"})
#: probe kernel time that defines the reference speed
PROBE_REF_S = 0.002
PROBE_KERNELS = 3
PROBE_PERIOD_S = 0.25
CHILD_TIMEOUT_S = 150
OUT_DIR = ROOT / ".gbbench_out"
SINGLE_THREAD_ENV = {"GBSPEC_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "OMP_NUM_THREADS": "1"}


class SpeedProbe:
    """Fixed calibration kernel that runs no gbspec code.

    An interpreter loop and many small numpy calls, the mix a symbol-scan op
    spends its time on; no BLAS, whose thread wake-ups make short calls
    erratic.  Calling the probe returns the mean of PROBE_KERNELS runs.
    """

    def __init__(self):
        import numpy as np

        self._x = np.linspace(0.0, 1.0, 64)
        self._sin = np.sin

    def _kernel(self) -> float:
        start = time.perf_counter()
        s = 0
        for i in range(15_000):
            s += i * i
        x = self._x
        for _ in range(100):
            x = self._sin(x) * 0.5 + x[::-1]
        return time.perf_counter() - start

    def __call__(self) -> float:
        return statistics.mean(self._kernel() for _ in range(PROBE_KERNELS))

    def scale(self, wall_s: float, before: float, after: float) -> float:
        """``wall_s`` at the reference speed, from the probes around it."""
        return wall_s * PROBE_REF_S / ((before + after) / 2)


class Pass(NamedTuple):
    seconds: float        # at the reference speed with a probe, else wall
    outcomes: dict[str, Outcome]
    wall_s: float


def run_pass(main, jobs: list[Job], probe: SpeedProbe | None = None) -> Pass:
    """Call ``main(argv)`` for every job with stdout captured.

    The time is the sum of the ops' wall times.  With a probe, the probe
    runs before the first op, after the last and between ops every
    PROBE_PERIOD_S, and each op is scaled by the probes around it; probe
    time is outside the sums.
    """
    outcomes = {}
    wall = scaled = pending = 0.0
    last = probe() if probe else 0.0
    last_at = time.perf_counter()
    for i, job in enumerate(jobs):
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = main(list(job.argv))
            outcomes[job.id] = Outcome(rc, out.getvalue())
        except Exception as exc:  # noqa: BLE001 - an escaping exception is a failed op
            outcomes[job.id] = Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        wall += elapsed
        pending += elapsed
        if probe and (i == len(jobs) - 1 or time.perf_counter() - last_at >= PROBE_PERIOD_S):
            now = probe()
            scaled += probe.scale(pending, last, now)
            pending, last, last_at = 0.0, now, time.perf_counter()
    return Pass(scaled if probe else wall, outcomes, wall)


def speed_probe(workload: str) -> SpeedProbe | None:
    return SpeedProbe() if workload in SCALED_WORKLOADS else None


def digest(outcome: Outcome) -> str:
    return hashlib.sha256(f"{outcome.rc}|{outcome.error}|{outcome.stdout}".encode()).hexdigest()


@dataclasses.dataclass
class Tally:
    """Verdicts over every op run; identical outputs reuse their verdict."""

    attempted: int = 0
    failed: int = 0          # ops outside KNOWN_DEFECTS that failed
    known_failed: int = 0    # KNOWN_DEFECTS ops that failed
    failures: dict = dataclasses.field(default_factory=dict)
    _seen: dict = dataclasses.field(default_factory=dict)

    def add(self, jobs: list[Job], outcomes: dict[str, Outcome]) -> None:
        for job in jobs:
            outcome = outcomes[job.id]
            seen = self._seen.get(job.id)
            if seen is not None and seen[0] == outcome:
                reason = seen[1]
            else:
                reason = check(job, outcome)
                self._seen[job.id] = (outcome, reason)
            self.fail(job.id, reason)

    def verdict(self, job_id: str) -> str | None:
        """The reason the last checked output of ``job_id`` failed, or None."""
        return self._seen[job_id][1]

    def fail(self, job_id: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failures[job_id] = reason
        if job_id in KNOWN_DEFECTS:
            self.known_failed += 1
        else:
            self.failed += 1

    @property
    def ok_rate(self) -> float:
        return (self.attempted - self.failed - self.known_failed) / self.attempted


def openblas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, asked of the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def thread_settings(cli) -> dict:
    return {
        **{k: os.environ.get(k) for k in SINGLE_THREAD_ENV},
        "gbspec_workers": cli.worker_count(),
        "openblas_threads": openblas_threads(),
    }


def environment(cli, seed: int, jobs: list[Job]) -> dict:
    import numpy as np

    model = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": thread_settings(cli),
        "seed": seed,
        "jobs": [{"id": j.id, "argv": list(j.argv[:1]) + [
            os.path.relpath(a, ROOT) if os.path.isabs(a) else a for a in j.argv[1:]],
            **j.meta} for j in jobs],
    }


def run_child(args: list[str], env: dict | None = None) -> dict:
    """Run child.py in a fresh process; its last stdout line as a dict."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        cwd=ROOT, env={**os.environ, **(env or {})}, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    probe = speed_probe(workload)
    setups, setups_wall = [], []
    before = probe() if probe else 0.0
    for _ in range(SETUP_REPEATS):
        setups_wall.append(run_child(["setup", workload])["setup_s"])
        after = probe() if probe else 0.0
        setups.append(probe.scale(setups_wall[-1], before, after) if probe
                      else setups_wall[-1])
        before = after
    from child import import_cli

    cli = import_cli()
    jobs = workload_jobs(workload, seed)
    tally = Tally()
    start = time.perf_counter()
    cold = run_pass(cli.main, jobs, probe)
    tally.add(jobs, cold.outcomes)
    colds, colds_wall = [cold.seconds], [cold.wall_s]
    while len(colds) < COLD_MIN or (
            len(colds) < COLD_REPEATS
            and time.perf_counter() - start + cold.wall_s <= COLD_SHARE * seconds):
        child = run_child(["pass", workload, str(seed)])
        colds.append(child["seconds"])
        colds_wall.append(child["wall_s"])
        for job in jobs:
            # a fresh process must print what the workload's process printed
            same = child["digests"][job.id] == digest(cold.outcomes[job.id])
            tally.fail(job.id, tally.verdict(job.id) if same
                       else "output differs between processes")
    warm = []  # (seconds, wall_s) per pass; outputs are dropped once checked
    while len(warm) < MIN_WARM_PASSES or time.perf_counter() - start < seconds:
        result = run_pass(cli.main, jobs, probe)
        tally.add(jobs, result.outcomes)
        warm.append((result.seconds, result.wall_s))
    values = {
        "setup_s": statistics.median(setups),
        # means, not medians: the host flips between speed states every few
        # seconds, and the mean averages over them where a median snaps to
        # one of them (raw symbol-scan passes, 10 runs: 0.18 against 0.26)
        "cold_s": statistics.mean(colds),
        "run_s": statistics.mean(seconds for seconds, _ in warm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": tally.ok_rate,
    }
    record = {"environment": environment(cli, seed, jobs), "scaled": probe is not None,
              "setup_samples_s": setups, "setup_wall_s": setups_wall,
              "cold_samples_s": colds, "cold_wall_s": colds_wall,
              "warm_samples_s": [seconds for seconds, _ in warm],
              "warm_wall_s": [wall for _, wall in warm]}
    return values, tally, record


def traced(workload: str, seed: int) -> tuple[dict, Tally, dict]:
    from child import import_cli
    from tracing import Recorder, layer_metrics, memory_peaks, run_pipelines

    cli = import_cli()
    jobs = workload_jobs(workload, seed)
    tally = Tally()
    default_s, outcomes, _ = run_pass(cli.main, jobs)
    tally.add(jobs, outcomes)

    rec = Recorder()
    traced_s, mirrored = run_pipelines(jobs, rec)
    for job in jobs:
        # the pipelines must keep producing what the CLI prints
        differs = outcomes[job.id].rc == 0 and mirrored[job.id] != outcomes[job.id].stdout
        tally.fail(job.id, "traced pipeline output differs from the CLI" if differs
                   else tally.verdict(job.id))
    untraced_s, _ = run_pipelines(jobs, Recorder(enabled=False))
    single = run_child(["pass", workload, str(seed)], env=SINGLE_THREAD_ENV)

    layers = layer_metrics(rec)
    layers.update(memory_peaks(WORKLOADS[workload]()))
    layers["cli.pool_speedup"] = single["wall_s"] / default_s
    layers["trace.traced_s"] = traced_s
    layers["trace.untraced_s"] = untraced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    record = {"environment": environment(cli, seed, jobs),
              "cli_pass_s": default_s, "single_thread": single,
              "spans": [dataclasses.asdict(s) for s in rec.spans]}
    return layers, tally, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = bench_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.trace:
        values, tally, record = traced(args.workload, args.seed)
        wanted = spec["per_layer"]
    else:
        values, tally, record = end_to_end(args.workload, args.seed, seconds)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}

    record.update(workload=args.workload, trace=args.trace, metrics=metrics,
                  attempted=tally.attempted, failed=tally.failed,
                  known_failed=tally.known_failed, failures=tally.failures)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:40s} {m['value']:.6g} {m['unit']}")
    errors = tally.failed + tally.known_failed
    print(f"{args.workload:12s} {'error_rate':40s} {errors / tally.attempted:.6g} ratio "
          f"({errors} of {tally.attempted} ops failed, {tally.known_failed} of them "
          f"known defects)")
    print(f"{args.workload:12s} record: {os.path.relpath(out_file, ROOT)}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
