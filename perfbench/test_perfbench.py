"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench -q``; the
repository's own suite (``tests/``) does not collect them.
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HEALTH = {"precoding.rank_verdict_pass_frac", "analysis.mc_verdict_pass_frac",
          "analysis.slope_verdict_pass_frac"}

sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sdof import analysis, precoding  # noqa: E402
from sdof.channel import InterferenceModel, sample_channel  # noqa: E402
from sdof.errors import ParameterError  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def digest_line(done):
    return next(l for l in done.stdout.splitlines() if l.startswith("verdict_sha256"))


@pytest.fixture(scope="module")
def traced():
    """One traced run per workload; fixed_verify at full size so that every
    case of the criterion-3 list shows up in the trace."""
    out = {}
    for w in WORKLOADS:
        extra = [] if w == "fixed_verify" else ["--tiny"]
        done = bench("--workload", w, "--seed", "1", "--seconds", "1", "--trace", "1", *extra)
        assert done.returncode == 0, done.stderr + done.stdout
        out[w] = last_json(done)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr + done.stdout
    out = last_json(done)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    printed = {name: m["unit"] for name, m in out["metrics"].items()}
    assert printed == {s["name"]: s["unit"] for s in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert "failed_frac = 0/" in done.stdout and "unit_tail_s" in done.stdout


def test_traced_run_prints_every_per_layer_metric(traced):
    declared = {s["name"]: s["unit"] for s in SPEC["per_layer"]}
    for out in traced.values():
        assert out["correct"] is True
        assert {n: m["unit"] for n, m in out["metrics"].items()} == declared
    # a misspelt name would read 0 everywhere: each one must be measured somewhere
    unmeasured = [n for n in declared if n not in HEALTH
                  and all(out["metrics"][n]["value"] == 0 for out in traced.values())]
    assert not unmeasured


@pytest.mark.parametrize("workload", ["fading_verify", "fixed_verify"])
def test_mutated_scheme_fails_units(workload):
    done = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--tiny", "--mutate")
    assert done.returncode == 1
    out = last_json(done)
    assert out["correct"] is False
    assert 0 < out["failed"] <= out["attempted"]
    assert f"failed_frac = {out['failed']}/{out['attempted']}" in done.stdout


def test_slopes_has_no_mutation():
    done = bench("--workload", "slopes", "--seed", "0", "--seconds", "1", "--tiny", "--mutate")
    assert done.returncode == 2 and not done.stdout.strip()


def test_digest_does_not_depend_on_the_workload_seed():
    a = bench("--workload", "fading_verify", "--seed", "0", "--seconds", "1", "--tiny")
    b = bench("--workload", "fading_verify", "--seed", "5", "--seconds", "1", "--tiny")
    assert digest_line(a) == digest_line(b)


def test_digest_ignores_last_bits_but_not_values():
    base = (356, {"decoder1": 356}, [1.0 / 3.0])
    assert workloads.verdict_sha256(base) == workloads.verdict_sha256(
        (356, {"decoder1": 356}, [1.0 / 3.0 + 1e-15]))
    assert workloads.verdict_sha256(base) != workloads.verdict_sha256(
        (356, {"decoder1": 355}, [1.0 / 3.0]))
    assert workloads.verdict_sha256(base) != workloads.verdict_sha256(
        (356, {"decoder1": 356}, [0.3334]))


@pytest.mark.xfail(strict=True, raises=ParameterError,
                   reason="gaussian_entropy forms P A A^T + I explicitly and loses positive "
                          "definiteness at P = 1e8 on rank-deficient interference matrices")
def test_gaussian_entropy_fails_at_1e8_on_a_known_seed():
    """The defect that keeps the slopes workload's interference grid below 1e8.

    Unit seed 250108 (unit 8 of --seed 25 while the grid reached 1e8) fails.
    When this test starts to pass, the defect is fixed: restore
    workloads.GRID_INTERFERENCE to workloads.GRID_HIGH and drop the marker.
    """
    K, n = 3, 2
    r = sample_channel(InterferenceModel(K), fixed=False,
                       slots=precoding.interference_slots(K, n), seed=250108)
    pre = precoding.build_asymptotic_precoders(K, n, r)
    report = analysis.scheme_mutual_information(pre, 1e8)
    assert all(math.isfinite(v) for v in [report.leak, *report.legit.values()])


def test_ill_conditioned_draw_is_a_health_flag_not_a_failure():
    result = workloads.fading_verify(tracing.Tracer(), 400138, workloads.FULL, False)
    assert result.verdict[1]["decoder1"] == 355  # one singular value below RANK_TOL
    assert result.problems == [] and result.health == {"rank": False}


def test_structural_rank_loss_is_a_failure():
    K, n = 3, 1
    slots = precoding.interference_slots(K, n)
    r = sample_channel(InterferenceModel(K), fixed=False, slots=slots, seed=1)
    decoder = precoding.assemble_receiver_and_eve_matrices(
        precoding.build_asymptotic_precoders(K, n, r)).decoders[1]
    assert workloads.full_rank_problems(tracing.Tracer(), [("decoder1", decoder)], slots) == []
    decoder = decoder.copy()
    decoder[:, -1] = decoder[:, 0]
    assert len(workloads.full_rank_problems(
        tracing.Tracer(), [("decoder1", decoder)], slots)) == 1


def test_tail_has_ten_units_beyond_it():
    assert run.tail([0.1] * 10) is None
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "fading_verify", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
