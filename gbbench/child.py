"""Work the benchmark runs in a fresh process of its own.

    python3 gbbench/child.py setup <workload>
        import gbspec.cli, build the parser and load and validate every config
        of the workload; print {"setup_s": ...}.
    python3 gbbench/child.py pass <workload> <seed>
        one pass over the workload's CLI calls, as the first pass of a fresh
        process; print its time (see run.run_pass), a digest of each call's
        output and the thread counts in effect.  The benchmark runs it for cold_s samples and,
        with GBSPEC_THREADS=1 and OPENBLAS_NUM_THREADS=1, for the
        single-threaded reference.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from jobs import SRC_DIR, setup_configs, workload_jobs


def import_cli():
    """Import gbspec.cli from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC_DIR))
    from gbspec import cli

    if SRC_DIR not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"gbspec imported from {cli.__file__}, not from {SRC_DIR}")
    return cli


def setup(workload: str) -> dict:
    start = time.perf_counter()
    cli = import_cli()
    cli.build_parser()
    for path in setup_configs(workload):
        cfg = cli.load_config(path)
        if cfg.get("d", 1) == 1:
            cli.load_problem_1d(cfg)
        else:
            cli.load_problem_md(cfg)
    return {"setup_s": time.perf_counter() - start}


def single_pass(workload: str, seed: int) -> dict:
    from run import digest, run_pass, speed_probe, thread_settings

    probe = speed_probe(workload)
    cli = import_cli()
    jobs = workload_jobs(workload, seed)
    seconds, outcomes, wall = run_pass(cli.main, jobs, probe)
    return {"seconds": seconds, "wall_s": wall, "threads": thread_settings(cli),
            "digests": {job.id: digest(outcomes[job.id]) for job in jobs}}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        result = setup(argv[1])
    elif argv[:1] == ["pass"] and len(argv) == 3:
        result = single_pass(argv[1], int(argv[2]))
    else:
        sys.stderr.write(__doc__)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
