"""Print every benchmark metric for every workload: the one command to run.

    python3 gbbench/report.py [--seed N] [--seconds S] [--no-trace]

Runs each workload of BENCHMARK.json in a fresh process with tracing off
(end-to-end metrics plus error_rate with its counts), then once more with
tracing on (per-layer metrics), and prints one table of each.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from jobs import BENCH_DIR, ROOT


def run(workload: str, seed: int, seconds: float | None, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    error_line = next(line for line in lines if " error_rate " in line)
    return json.loads(lines[-1]), " ".join(error_line.split()[1:])


def table(title: str, names: list[str], units: dict, results: dict) -> None:
    workloads = list(results)
    print(f"\n{title}")
    print(f"{'metric':40s} {'unit':6s}" + "".join(f"{w:>14s}" for w in workloads))
    for name in names:
        row = "".join(f"{results[w]['metrics'][name]['value']:14.6g}" for w in workloads)
        print(f"{name:40s} {units[name]:6s}{row}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    e2e, errors = {}, {}
    for w in workloads:
        e2e[w], errors[w] = run(w, args.seed, args.seconds, 0)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    table("end to end (tracing off)", [m["name"] for m in spec["end_to_end"]], units, e2e)
    for w in workloads:
        r = e2e[w]
        print(f"{w:12s} correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}  {errors[w]}")
    if not args.no_trace:
        traced = {w: run(w, args.seed, args.seconds, 1)[0] for w in workloads}
        table("per layer (traced run)", [m["name"] for m in spec["per_layer"]], units, traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
