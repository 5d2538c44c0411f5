"""The benchmark's contract with the library, checked in the test suite.

perfbench/verdicts.json pins one SHA-256 per workload over the verdicts of a
reference unit.  Recomputing them here, by calling perfbench/workloads.py
directly at full size, makes a change that alters a verdict, or renames a
library name the workloads call, fail the suite and not only the benchmark
run.  The same goes for the library functions that perfbench/run.py patches
with probes in traced runs.  Nothing under perfbench/ is written.
"""
import gc
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")

with open(os.path.join(PERFBENCH, "verdicts.json"), encoding="utf-8") as fh:
    PINNED = json.load(fh)

# The slopes digest depends on the BLAS thread count: its log-dets round
# differently when OpenBLAS splits them.  verdicts.json pins the 2-thread
# digest; the 1-thread one is pinned here.  The other digests hold at both.
SLOPES_BY_THREADS = {
    1: "abb51d700c9e8504733362981bca55bb82c90767725a5af7c49e408ff1956527",
    2: PINNED["slopes"]["sha256"],
}


# the seeds are the reference units the pins name: the warm-up seed of a
# seeded workload, any seed for fixed_verify, whose inputs carry none
@pytest.mark.parametrize("name, seed", [("fading_verify", 1), ("fixed_verify", 0),
                                        ("slopes", 8)])
def test_pinned_verdict_digest(name, seed):
    workload = workloads.WORKLOADS[name]
    assert workload.warmup_seed in (seed, None)
    want = PINNED[name]["sha256"]
    if name == "slopes":
        threads = _load("run")._blas_threads()
        assert threads in SLOPES_BY_THREADS, f"no slopes digest pinned for {threads} BLAS threads"
        want = SLOPES_BY_THREADS[threads]
    result = workload.unit(tracing.Tracer(), seed, workloads.FULL, False)
    assert result.problems == []
    assert workloads.verdict_sha256(result.verdict) == want


def test_probe_targets_exist(monkeypatch):
    # probe_targets imports workloads by its plain name, as run.py does
    monkeypatch.syspath_prepend(PERFBENCH)
    targets = _load("run").probe_targets()
    assert targets
    for module, attribute, span, _ in targets:
        assert callable(getattr(module, attribute, None)), (module.__name__, attribute, span)


def test_mutated_units_name_their_failures():
    # the benchmark's mutation path: a broken derived jamming block fails
    # exactly the target-2 equations and leaks out of every receiver's
    # interference space; beta_1 := 1 fails as U~1 / T~_2
    fading = workloads.fading_verify(tracing.Tracer(), 1, workloads.TINY, True)
    assert fading.problems == ["13/16 alignment equations pass, want 16/16"] + [
        f"rank interference{l} = 65 > 64" for l in (1, 2, 3)]
    failed = [(target, generator) for target, generator, exact, numeric in fading.verdict[2]
              if not (exact and numeric)]
    assert len(failed) == 3 and {target for target, _ in failed} == {2}

    fixed = workloads.fixed_verify(tracing.Tracer(), 0, workloads.TINY, True)
    K, m, _, _, violations = fixed.verdict[0]
    assert (K, m) == (3, 1)
    assert fixed.problems == [f"(3,1): {len(violations)} violations"]
    assert violations and all("U~1" in v and "T~_2" in v for v in violations)


def test_kept_fixed_verify_units_stay_small():
    # perfbench/run.py keeps every unit's result for the whole run, so the
    # bytes a unit retains, times the units run in a window, show in
    # peak_rss_mb; the digest reads the report's mappings as dicts
    unit = workloads.WORKLOADS["fixed_verify"].unit
    first = unit(tracing.Tracer(), 0, workloads.FULL, False)
    for K, m, cardinalities, span, _ in first.verdict[:-1]:
        assert isinstance(cardinalities, dict) and isinstance(span, dict), (K, m)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [unit(tracing.Tracer(), seed, workloads.FULL, False) for seed in range(500)]
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert retained < 1024, f"{retained:.0f} bytes retained per unit"


# One fading_verify and one fixed_verify unit in a fresh process; prints
# whether numpy.random was imported on the way.
NO_RANDOM_PROBE = """
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import tracing, workloads
for name, seed in (("fading_verify", 1), ("fixed_verify", 0)):
    assert workloads.WORKLOADS[name].unit(tracing.Tracer(), seed, workloads.FULL, False).problems == []
print("numpy.random" in sys.modules)
"""


def test_units_do_not_import_numpy_random():
    # numpy imports numpy.random lazily, and importing it raises a process's
    # max RSS by about 6 MB (numpy 2.4), which peak_rss_mb reads: the keyed
    # draws and the rank certificate's key vector need no numpy generator
    src = os.path.join(os.path.dirname(PERFBENCH), "src")
    probe = NO_RANDOM_PROBE.format(src=src, perfbench=PERFBENCH)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout.split() == ["False"]
