"""sdof benchmark: three workloads against the library's public functions.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fading_verify --seed 0 --seconds 30 --trace 0

The load is a closed loop from one process: one client, one unit in flight.
Every unit's seed is derived from --seed; the warm-up uses a seed no timed
unit uses.  With --trace 0 the run reports the end-to-end metrics, with
--trace 1 the per-layer metrics from in-memory spans (written to
perfbench/out/ at the end).  The lines before the last are a readable
report; the last line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every check passed, 1 when one
failed and 2 when the run could not start.  perfbench/NOTES.md explains the
workloads, the metrics and the measured noise.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5   # this process plus SETUP_SAMPLES - 1 fresh processes
MAX_REPORTED_PROBLEMS = 5
# what --mutate passes off as the real scheme, per workload that has one
MUTATIONS = {"fading_verify": "precoding.mutate_qtilde(pre, 1)",
             "fixed_verify": "beta_1 := 1 at (K, m) = (3, 1)"}
# per-layer metric of each health flag a unit returns
HEALTH = {"rank": "precoding.rank_verdict_pass_frac",
          "mc": "analysis.mc_verdict_pass_frac",
          "slope": "analysis.slope_verdict_pass_frac"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["fading_verify", "fixed_verify", "slopes"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the self-tests")
    p.add_argument("--mutate", action="store_true",
                   help="pass a broken scheme off as the real one (self-test)")
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.mutate and args.workload not in MUTATIONS:
        p.error(f"{args.workload} has no mutation")
    return args


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup(args):
    """Imports, inputs and the untimed warm-up unit; returns (seconds, workload, size, warm-up)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import tracing
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    size = workloads.TINY if args.tiny else workloads.FULL
    warm = None
    if wl.warmup_seed is not None:
        warm = wl.unit(tracing.Tracer(), wl.warmup_seed, size, args.mutate)
    return time.perf_counter() - start, wl, size, warm


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    cmd += ["--tiny"] * args.tiny + ["--mutate"] * args.mutate
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                get_threads = getattr(lib, sym)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return get_threads()
    return None


def _process_threads():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _commit() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unavailable (not a git checkout)"
    with open(head_path, encoding="ascii") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="ascii") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unresolved ({ref})"


def _source_sha256() -> str:
    """Digest of the sdof sources, which names the code when there is no git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sdof")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "process_threads": _process_threads(),
        "SDOF_THREADS": os.environ.get("SDOF_THREADS", "unset"),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def tail(durations):
    """Highest percentile with at least ten units beyond it, or None."""
    n = len(durations)
    if n <= 10:
        return None
    return sorted(durations)[n - 11], 100.0 * (n - 10) / n, n


def probe_targets():
    """Calls that happen only inside another layer, with the count each makes."""
    from sdof import analysis, interference_sets
    from workloads import assembled_mb
    return [
        (analysis, "receive_decode_table", "pam.receive_decode_table",
         lambda table: ("table_points", table.size)),
        (analysis, "decode_indices", "pam.decode_indices", None),
        (analysis, "assemble_receiver_and_eve_matrices",
         "precoding.assemble_receiver_and_eve_matrices",
         lambda mats: ("assembled_mb", assembled_mb(mats))),
        (interference_sets, "build_extended_dimension_sets",
         "interference_sets.build_extended_dimension_sets", None),
    ]


def timed_loop(args, wl, size, tracer):
    """Run units until --seconds have passed; every unit started is finished.

    In a traced run the even units are traced and the odd ones are not, and
    the loop runs at least one of each, for the tracing overhead.
    """
    import tracing
    import workloads
    durations, traced_flags, results, errors = [], [], [], []
    loop_start = time.perf_counter()
    while True:
        i = len(durations)
        traced = bool(args.trace) and i % 2 == 0
        tracer.begin_unit(i, traced)
        start = time.perf_counter()
        try:
            with tracer.span(tracing.ROOT):
                result = wl.unit(tracer, workloads.unit_seed(args.seed, i), size, args.mutate)
        except Exception:  # a unit that raises is counted as failed
            result = None
            errors.append(traceback.format_exc())
        end = time.perf_counter()
        durations.append(end - start)
        traced_flags.append(traced)
        results.append(result)
        if end - loop_start >= args.seconds and (not args.trace or i >= 1):
            break
    tracer.active = False
    return durations, traced_flags, results, errors, time.perf_counter() - loop_start


def check_digest(args, wl, warm, results, problems):
    """Digest of the pinned warm-up unit or, when the inputs carry no seed, of
    every unit, which must all agree; compared with perfbench/verdicts.json."""
    import workloads
    if warm is not None:
        digest = workloads.verdict_sha256(warm.verdict)
        source = f"warm-up unit, seed {wl.warmup_seed}"
        if warm.problems:
            problems.append(f"warm-up unit: {warm.problems[:MAX_REPORTED_PROBLEMS]}")
    else:
        digests = {workloads.verdict_sha256(r.verdict) for r in results if r is not None}
        digest = min(digests) if digests else "none"
        source = "every unit (inputs carry no seed)"
        if len(digests) > 1:
            problems.append(f"units disagree: {len(digests)} distinct verdict digests")
    with open(os.path.join(HERE, "verdicts.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)[args.workload]["sha256"]
    if args.tiny:
        status = "not recorded for --tiny"
    elif digest == recorded:
        status = "matches perfbench/verdicts.json"
    else:
        status = f"DIFFERS from perfbench/verdicts.json ({recorded})"
        problems.append("verdict digest differs from the recorded one")
    return digest, f"{source}; {status}"


def per_layer(tracer, results, durations, traced_flags) -> dict:
    import tracing
    computed = tracing.summarize(tracer.spans)
    for key, name in HEALTH.items():
        flags = [r.health[key] for r in results if r is not None and key in r.health]
        computed[name] = (sum(flags) / len(flags) if flags else 0.0, "frac")
    rate = {}
    for flag in (True, False):
        picked = [d for d, t in zip(durations, traced_flags) if t == flag]
        rate[flag] = len(picked) / sum(picked)
    computed["trace.units_per_s"] = (rate[True], "1/s")
    computed["trace.untraced_units_per_s"] = (rate[False], "1/s")
    computed["trace.overhead_frac"] = (rate[False] / rate[True] - 1.0, "frac")
    return computed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sdof", "__init__.py")):
        print(f"perfbench: no sdof sources under {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args)[0]}))
        return 0

    setup_samples = [] if args.trace else [setup_in_fresh_process(args)
                                           for _ in range(SETUP_SAMPLES - 1)]
    setup_s, wl, size, warm = setup(args)
    setup_samples.append(setup_s)
    import tracing

    tracer = tracing.Tracer()
    with tracing.probes(tracer, probe_targets() if args.trace else []):
        durations, traced_flags, results, errors, loop_s = timed_loop(args, wl, size, tracer)

    n = len(durations)
    failed = sum(1 for r in results if r is None or r.problems)
    problems = errors[:MAX_REPORTED_PROBLEMS] + [
        f"unit {i}: {p}" for i, r in enumerate(results) if r is not None for p in r.problems
    ][:MAX_REPORTED_PROBLEMS]
    digest, digest_note = check_digest(args, wl, warm, results, problems)
    env = environment()
    threads_ok = env["process_threads"] is None or env["process_threads"] <= env["nproc"]
    if not threads_ok:
        problems.append(f"{env['process_threads']} threads > nproc {env['nproc']}")

    if args.trace:
        computed = per_layer(tracer, results, durations, traced_flags)
    else:
        computed = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "units_per_s": (n / loop_s, "1/s"),
            "unit_p50_s": (statistics.median(durations), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    metrics = {}
    for spec in declared_metrics()["per_layer" if args.trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        value, got_unit = computed.get(name, (0.0, unit))  # a layer this workload never calls
        if got_unit != unit:
            raise RuntimeError(f"{name}: computed in {got_unit}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    tail_s = tail(durations)
    correct = failed == 0 and not problems

    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "metrics": metrics,
                   "unit_tail_s": tail_s, "failed": failed, "attempted": n,
                   "unit_durations_s": durations, "setup_samples_s": setup_samples,
                   "verdict_sha256": digest, "digest_status": digest_note,
                   "problems": problems,
                   "spans": [s.to_json_dict() for s in tracer.spans]}, fh)

    header = (f"sdof benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}" + (" tiny" if args.tiny else "")
              + (f" MUTATED: {MUTATIONS[args.workload]}" if args.mutate else ""))
    lines = [header,
             "load: closed loop, 1 client, 1 unit in flight, called in-process (no cli pool)",
             "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
             f"threads: {env['process_threads']} <= nproc {env['nproc']}: {threads_ok}",
             f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}"]
    lines += [f"  {name:<58} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append("  " + (f"unit_tail_s = {tail_s[0]:.6g} s (p{tail_s[1]:.1f} of N={tail_s[2]})"
                         if tail_s else f"unit_tail_s omitted: N={n} units <= 10"))
    lines.append(f"  failed_frac = {failed}/{n} = {failed / n:.6g}")
    lines.append(f"verdict_sha256 {digest} ({digest_note})")
    lines += [f"PROBLEM {p}" for p in problems]
    lines.append(f"written: {os.path.relpath(out_path, ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
