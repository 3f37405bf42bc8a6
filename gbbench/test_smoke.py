"""Smoke test of the benchmark: a tiny job list through the runner and the checks.

    python3 -m pytest -q gbbench/test_smoke.py
"""

from __future__ import annotations

import json

import pytest

import jobs
from checks import Outcome, cardinal_mp, check
from child import import_cli
from run import SpeedProbe, Tally, run_pass
from tracing import Recorder, layer_metrics, memory_peaks, run_pipelines


@pytest.fixture(scope="module")
def cli():
    return import_cli()


@pytest.fixture(scope="module")
def tiny() -> list[jobs.Job]:
    one_d = next(j for j in jobs.dist_1d() if "hyperbolic" in j.id).with_n([16, 32])
    two_d = next(j for j in jobs.dist_md() if "curved" in j.id).with_n([8, 12])
    scan = {j.id: j for j in jobs.symbol_scan()}
    toeplitz = jobs.Job("toeplitz:f:polynomial:p2:m64",
                    ("toeplitz", "--symbol", "f", "--p", "2", "--m", "64", "--eig",
                     "--family", "polynomial"),
                    {"p": 2, "family": "polynomial", "phase": None, "m": 64})
    return [one_d, two_d, toeplitz] + [scan[i] for i in (
        "bounds:polynomial:p3", "bounds:hyperbolic(100):p3",
        "cardinal:hyperbolic(10):p3", "decay:polynomial", "symbol:g:hyperbolic(10):p5")]


@pytest.fixture(scope="module")
def cli_pass(cli, tiny):
    return run_pass(cli.main, tiny, SpeedProbe())


def test_probe_scales_the_pass(cli, tiny, cli_pass):
    assert cli_pass.seconds > 0 and cli_pass.wall_s > 0
    unscaled = run_pass(cli.main, tiny[3:5])
    assert unscaled.seconds == unscaled.wall_s


def test_tiny_jobs_pass_their_checks(tiny, cli_pass):
    outcomes = cli_pass.outcomes
    tally = Tally()
    tally.add(tiny, outcomes)
    assert tally.attempted == len(tiny)
    assert tally.failed == 0, tally.failures
    # hyperbolic(100) is a known defect: it fails, and only ok_rate shows it
    assert set(tally.failures) == {"bounds:hyperbolic(100):p3"}
    assert tally.known_failed == 1
    assert tally.ok_rate == pytest.approx((len(tiny) - 1) / len(tiny))


def test_traced_pipelines_mirror_the_cli(tiny, cli_pass):
    outcomes = cli_pass.outcomes
    rec = Recorder()
    _, mirrored = run_pipelines(tiny, rec)
    for job in tiny:
        if outcomes[job.id].rc == 0:
            assert mirrored[job.id] == outcomes[job.id].stdout, job.id
    layers = layer_metrics(rec)
    assert layers["collocation.gb_basis.calls"] == 2 + 2 * 2  # 1D n=16,32; 2D n=8,12
    assert layers["multidim.assemble_md.self_s"] < layers["multidim.assemble_md.s"]
    assert layers["spectral.eigenvalues_dense.calls"] == 5
    jobs_spans = [s for s in rec.spans if s.name == "job"]
    assert len(jobs_spans) == len(tiny) and all(s.parent is None for s in jobs_spans)

    untraced = Recorder(enabled=False)
    run_pipelines(tiny, untraced)
    assert untraced.spans == [] and not untraced.counts


def test_memory_peaks_cover_basis_and_assembly(tiny):
    peaks = memory_peaks(tiny)
    assert peaks["collocation.gb_basis.peak_mb"] > 0
    assert peaks["multidim.assemble_md.peak_mb"] > peaks["collocation.gb_basis.peak_mb"]


def test_checks_reject_wrong_outputs(tiny, cli_pass):
    outcomes = cli_pass.outcomes
    by_id = {j.id: j for j in tiny}

    cardinal = by_id["cardinal:hyperbolic(10):p3"]
    lines = outcomes[cardinal.id].stdout.splitlines()
    scaled = [lines[0]] + [f"{t},{float(v) * 1.001!r}" for t, v in
                           (line.split(",") for line in lines[1:])]
    assert "integral" in check(cardinal, Outcome(0, "\n".join(scaled) + "\n"))

    toeplitz = by_id["toeplitz:f:polynomial:p2:m64"]
    lines = outcomes[toeplitz.id].stdout.splitlines()
    lines[5] = "1.5,0"
    assert "2-2cos" in check(toeplitz, Outcome(0, "\n".join(lines) + "\n"))

    dist = by_id["distribution:1d_hyperbolic_geometry"]
    report = json.loads(outcomes[dist.id].stdout)
    report["runs"][1]["order"] -= 1
    assert "eigenvalues" in check(dist, Outcome(0, json.dumps(report)))
    report = json.loads(outcomes[dist.id].stdout)
    runs = report["runs"]
    runs[0]["mean_abs_discrepancy"], runs[1]["mean_abs_discrepancy"] = (
        runs[1]["mean_abs_discrepancy"], runs[0]["mean_abs_discrepancy"])
    assert "decrease" in check(dist, Outcome(0, json.dumps(report)))

    assert check(dist, Outcome(2, "")) == "exit code 2"
    assert check(dist, Outcome(None, "", "ZeroDivisionError: x")).startswith("raised")


def test_mpmath_oracle_matches_the_cubic_b_spline():
    # closed form of the uniform cubic B-spline: 1/6, 2/3 at the knots 1, 2
    assert cardinal_mp("polynomial", None, 3, 1.0) == pytest.approx(1 / 6, abs=1e-15)
    assert cardinal_mp("polynomial", None, 3, 2.0) == pytest.approx(2 / 3, abs=1e-15)
    assert cardinal_mp("polynomial", None, 3, 1.5) == pytest.approx(23 / 48, abs=1e-15)
    # phi_3'' = phi_1(t) - 2 phi_1(t-1) + phi_1(t-2): -2 at the centre
    assert cardinal_mp("polynomial", None, 3, 2.0, 2) == pytest.approx(-2.0, abs=1e-15)


def test_seed_only_permutes_the_jobs():
    for name in jobs.WORKLOADS:
        a, b = jobs.workload_jobs(name, 1), jobs.workload_jobs(name, 2)
        assert sorted(j.id for j in a) == sorted(j.id for j in b)
        assert a == jobs.workload_jobs(name, 1)
    ids = {j.id for name in jobs.WORKLOADS for j in jobs.WORKLOADS[name]()}
    assert jobs.KNOWN_DEFECTS <= ids
