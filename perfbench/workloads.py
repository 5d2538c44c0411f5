"""The three sdof benchmark workloads: one unit of work each, with its checks.

A unit calls the library's public functions directly (never the CLI thread
pool), wraps every call in a tracer span, checks the verdicts the paper
guarantees exactly, and returns the deterministic outputs that feed the
verdict digest.  Statistical verdicts (Monte Carlo monotonicity, slope
windows, full rank of an ill-conditioned draw at RANK_TOL) are returned as
health flags, never as failures: they are seed-dependent and are findings,
not defects of a run.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sdof import analysis, converse, interference_sets, pam, precoding
from sdof.channel import (GainDistribution, HelperModel, InterferenceModel,
                          MacPartialModel, sample_channel)
from sdof.monomial import Monomial

RANK_TOL = 1e-10
# Generic full rank holds for almost every draw, but a draw can be so
# ill-conditioned that a singular value falls below RANK_TOL (unit seed
# 400138: 8.4e-8 against a threshold of 1.2e-7).  A decoder or eavesdropper
# matrix short of M_n at RANK_TOL is judged again at STRUCTURAL_TOL, about
# three decades below that draw and more than three above round-off.  Short
# there too, it has lost rank structurally: a failure.  Full there, the draw
# is ill-conditioned: a health flag, not a failure.
STRUCTURAL_TOL = 1e-13
GRID_HIGH = (1e5, 1e6, 1e7, 1e8)
# The K=3, n=2 interference scheme stops at 1e7.  At P = 1e8,
# analysis.gaussian_entropy loses positive definiteness on its rank-deficient
# interference matrices for about one unit seed in 660 and raises.  That is a
# defect of the program, pinned by a strict xfail self-test
# (test_gaussian_entropy_fails_at_1e8_on_a_known_seed); NOTES.md has the rates.
GRID_INTERFERENCE = GRID_HIGH[:3]
GRID_MC = (1e4, 1e5, 1e6, 1e7)
MC_DELTA = 0.05
MI_SLOPE_TOL = 0.05
MC_SLOPE_TOL = 0.1
DECODE_TOL = 1e-9
# Receiver span of the fixed-gain scheme, (K-1) m^s + (K+1) (m+1)^s with
# s = K(K-1) + 2, written out as the numbers the paper's table states.
EXPECTED_SPAN = {(3, 1): 1026, (3, 2): 26756, (4, 1): 81923}
# Timed units draw seeds from UNIT_SEED_BASE up, so the warm-up seeds below
# it are never used by a timed unit.
UNIT_SEED_BASE = 100
UNIT_SEED_STRIDE = 10_000


@dataclass(frozen=True)
class Size:
    fading_n: int
    fixed_cases: tuple[tuple[int, int], ...]
    mc_trials: int
    sweep_samples: int


FULL = Size(fading_n=2, fixed_cases=((3, 1), (3, 2), (4, 1)),
            mc_trials=10_000, sweep_samples=200)
# Smoke-test size: the same calls and checks on the smallest inputs.
TINY = Size(fading_n=1, fixed_cases=((3, 1),), mc_trials=500, sweep_samples=20)


@dataclass
class UnitResult:
    problems: list[str]   # failed exact verdicts; empty means the unit passed
    verdict: tuple        # deterministic outputs, the input of the digest
    health: dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    unit: Callable[..., UnitResult]
    warmup_seed: int | None   # None: inputs carry no seed, so no warm-up


def unit_seed(seed: int, index: int) -> int:
    return UNIT_SEED_BASE + UNIT_SEED_STRIDE * seed + index


def _canonical(x):
    """Digest form: floats at 8 significant digits, so last-bit differences
    between BLAS kernels of different CPUs do not flip the digest."""
    if isinstance(x, (bool, str, type(None))):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.8g}")
    if isinstance(x, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in x.items()))
    return tuple(_canonical(v) for v in x)


def verdict_sha256(verdict: tuple) -> str:
    return hashlib.sha256(repr(_canonical(verdict)).encode()).hexdigest()


def assembled_mb(mats: precoding.SchemeMatrices) -> float:
    """Bytes of every stacked matrix, computed from the array shapes."""
    arrays = [mats.eve_jamming, mats.eve_mixing]
    for group in (mats.decoders, mats.interference, mats.receive_mixing):
        arrays += list(group.values())
    return sum(a.nbytes for a in arrays) / 1e6


def _sample(tr, model, **kwargs):
    with tr.span("channel.sample_channel") as sp:
        r = sample_channel(model, **kwargs)
        sp.count("gain_draws", len(r.legit_gains) + len(r.eve_gains))
    return r


# ---------------------------------------------------------------------------
# fading_verify: criterion 4 at K = 3, n = 2, one realization per unit
# ---------------------------------------------------------------------------

def fading_verify(tr, seed: int, size: Size, mutate: bool) -> UnitResult:
    K, n = 3, size.fading_n
    gamma = (K - 1) ** 2
    slots = (K - 1) * n ** gamma + (K + 1) * (n + 1) ** gamma  # M_n, 356 at n = 2
    bound = (K + 1) * (n + 1) ** gamma

    r = _sample(tr, InterferenceModel(K), fixed=False, slots=slots, seed=seed)
    with tr.span("precoding.build_asymptotic_precoders"):
        pre = precoding.build_asymptotic_precoders(K, n, r)
    if mutate:
        pre = precoding.mutate_qtilde(pre, 1, seed=seed)
    with tr.span("precoding.verify_alignment_equations") as sp:
        eq = precoding.verify_alignment_equations(pre, tol=RANK_TOL)
        passed = sum(1 for e in eq.equations if e.exact_ok and e.numeric_ok)
        sp.count("equations_passed", passed)
        sp.count("equations_total", len(eq.equations))
    with tr.span("precoding.assemble_receiver_and_eve_matrices") as sp:
        mats = precoding.assemble_receiver_and_eve_matrices(pre)
        sp.count("assembled_mb", assembled_mb(mats))

    named = [(f"decoder{l}", mats.decoders[l]) for l in range(1, K + 1)]
    named += [(f"interference{l}", mats.interference[l]) for l in range(1, K + 1)]
    named.append(("eve_jamming", mats.eve_jamming))
    ranks = {}
    for name, matrix in named:
        with tr.span("precoding.numeric_rank"):
            ranks[name] = precoding.numeric_rank(matrix, RANK_TOL)

    problems = []
    if (passed, len(eq.equations)) != (16, 16):
        problems.append(f"{passed}/{len(eq.equations)} alignment equations pass, want 16/16")
    for name, rank in ranks.items():
        if name.startswith("interference") and rank > bound:
            problems.append(f"rank {name} = {rank} > {bound}")
    short = [(name, matrix) for name, matrix in named
             if not name.startswith("interference") and ranks[name] != slots]
    problems += full_rank_problems(tr, short, slots)
    verdict = (slots, ranks, [(e.target, e.generator, e.exact_ok, e.numeric_ok)
                              for e in eq.equations])
    return UnitResult(problems, verdict, {"rank": not short})


def full_rank_problems(tr, short, slots: int) -> list[str]:
    """Problems of the matrices short of full rank at RANK_TOL that are short
    at STRUCTURAL_TOL too."""
    problems = []
    for name, matrix in short:
        with tr.span("precoding.numeric_rank"):
            rank = precoding.numeric_rank(matrix, STRUCTURAL_TOL)
        if rank != slots:
            problems.append(f"rank {name} = {rank} != {slots} even at tol {STRUCTURAL_TOL:g}")
    return problems


# ---------------------------------------------------------------------------
# fixed_verify: the criterion-3 case list; no seed, identical every unit
# ---------------------------------------------------------------------------

def _verify_sets(tr, tag: str, K: int, m: int, override):
    with tr.span(f"interference_sets.verify_interference_alignment.{tag}") as sp:
        rep = interference_sets.verify_interference_alignment(K, m, beta_override=override)
        sp.count("monomials", sum(rep.set_cardinalities.values()))
        sp.count("checks", len(rep.checks))
        sp.count("violations", len(rep.violations))
    return rep


def fixed_verify(tr, seed: int, size: Size, mutate: bool) -> UnitResult:
    problems, verdict = [], []
    beta_one = {1: Monomial.one()}
    for K, m in size.fixed_cases:
        override = beta_one if mutate and (K, m) == (3, 1) else None
        rep = _verify_sets(tr, f"K{K}m{m}", K, m, override)
        s = K * (K - 1) + 2
        if not rep.ok:
            problems.append(f"({K},{m}): {len(rep.violations)} violations")
        for i in range(1, K + 2):
            if rep.set_cardinalities[f"T_{i}"] != m ** s:
                problems.append(f"({K},{m}): |T_{i}| != {m}^{s}")
            if rep.set_cardinalities[f"T~_{i}"] != (m + 1) ** s:
                problems.append(f"({K},{m}): |T~_{i}| != {m + 1}^{s}")
        if set(rep.receiver_span.values()) != {EXPECTED_SPAN[(K, m)]}:
            problems.append(f"({K},{m}): spans {rep.receiver_span}, want {EXPECTED_SPAN[(K, m)]}")
        verdict.append((K, m, rep.set_cardinalities, rep.receiver_span, rep.violations))

    mutated = _verify_sets(tr, "mutation", 3, 1, beta_one)
    if not mutated.violations or not all("U~1" in v and "T~_2" in v
                                         for v in mutated.violations):
        problems.append(f"beta_1 := 1 mutation not caught as U~1 / T~_2: {mutated.violations}")
    verdict.append(("mutation", mutated.violations))
    return UnitResult(problems, tuple(verdict))


# ---------------------------------------------------------------------------
# slopes: one seed's pass through the measurement side
# ---------------------------------------------------------------------------

def _slope(tr, values, grid=GRID_HIGH) -> float:
    with tr.span("analysis.fit_dof_slope"):
        return analysis.fit_dof_slope(grid, values).slope


def _mi_sweep(tr, kind: str, scheme, grid=GRID_HIGH):
    reports = []
    for P in grid:
        with tr.span(f"analysis.scheme_mutual_information.{kind}"):
            reports.append(analysis.scheme_mutual_information(scheme, P))
    return reports


def slopes(tr, seed: int, size: Size, mutate: bool) -> UnitResult:
    problems = []
    slope_checks = []   # (label, measured slope, target)

    # helper fixed-gain Monte Carlo at M = 1 (criterion 2)
    r = _sample(tr, HelperModel(1), fixed=True, seed=seed)
    with tr.span("pam.build_helper_scheme"):
        scheme = pam.build_helper_scheme(1, r, P=GRID_MC[0], delta=MC_DELTA)
    mc = []
    for P in GRID_MC:
        with tr.span("analysis.monte_carlo_error_rate") as sp:
            rep = analysis.monte_carlo_error_rate(scheme, P=P, trials=size.mc_trials, seed=seed)
            sp.count("trials", rep.trials)
        mc.append(rep)
        q_rule = max(1, math.floor(P ** ((1 - MC_DELTA) / (2 * (2 + MC_DELTA)))))
        if rep.Q != q_rule:
            problems.append(f"MC P={P:g}: Q={rep.Q}, parameter rule gives {q_rule}")
        if not 0.0 <= rep.rate <= 1.0:
            problems.append(f"MC P={P:g}: error rate {rep.rate} outside [0, 1]")
    rates = [rep.rate for rep in mc]
    mc_slope = _slope(tr, [rep.reliable_rate_nats for rep in mc], GRID_MC)
    mc_ok = all(b <= a for a, b in zip(rates, rates[1:])) and abs(mc_slope - 0.5) <= MC_SLOPE_TOL

    # interference fading scheme, K = 3
    K, n = 3, size.fading_n
    r = _sample(tr, InterferenceModel(K), fixed=False,
                slots=precoding.interference_slots(K, n), seed=seed)
    with tr.span("precoding.build_asymptotic_precoders"):
        pre = precoding.build_asymptotic_precoders(K, n, r)
    inter = _mi_sweep(tr, "interference", pre, GRID_INTERFERENCE)
    slope_checks.append(("interference leak",
                         _slope(tr, [x.leak for x in inter], GRID_INTERFERENCE), 0))
    # recorded, not judged: no criterion puts a window on these slopes, which
    # sit near (K-1) n^Gamma = 32 at n = 2
    inter_legit = [_slope(tr, [x.legit[l] for x in inter], GRID_INTERFERENCE)
                   for l in range(1, K + 1)]

    # helper fading scheme, M = 1..3 (criterion 1)
    helper = []
    for M in (1, 2, 3):
        r = _sample(tr, HelperModel(M), fixed=False, slots=M + 1, seed=seed)
        with tr.span("precoding.build_helper_fading"):
            sc = precoding.build_helper_fading(M, r)
        sweep = _mi_sweep(tr, "helper", sc)
        helper.append(sweep)
        slope_checks.append((f"helper M={M} legit", _slope(tr, [x.legit[1] for x in sweep]), M))
        slope_checks.append((f"helper M={M} leak", _slope(tr, [x.leak for x in sweep]), 0))

    # partially informed MAC, K = 3, m = 1..3 (criterion 6)
    partial = []
    for m in (1, 2, 3):
        streams = m * (K - 1)
        r = _sample(tr, MacPartialModel(K, m), fixed=False, slots=streams + 1, seed=seed)
        with tr.span("precoding.build_partial_csit_fading"):
            sc = precoding.build_partial_csit_fading(K, m, r)
        rng = np.random.default_rng([seed, m])
        v = rng.uniform(-1.0, 1.0, streams)
        u = rng.uniform(-1.0, 1.0, K)
        with tr.span("precoding.partial_csit_decode"):
            v_hat, _ = precoding.partial_csit_decode(sc.A_V @ v + sc.A_U @ u, sc)
        decode_ok = v_hat.shape == (streams,) and float(np.max(np.abs(v_hat - v))) <= DECODE_TOL
        if not decode_ok:
            problems.append(f"partial MAC m={m}: noiseless decode error above {DECODE_TOL}")
        sweep = _mi_sweep(tr, "partial", sc)
        partial.append((decode_ok, sweep))
        slope_checks.append((f"partial m={m} leak", _slope(tr, [x.leak for x in sweep]), 0))

    mi_values = [x.leak for x in inter] + [v for x in inter for v in x.legit.values()]
    mi_values += [v for sweep in helper for x in sweep for v in (x.leak, x.legit[1])]
    mi_values += [v for _, sweep in partial for x in sweep for v in (x.leak, x.legit[1])]
    if not all(math.isfinite(v) for v in mi_values):
        problems.append("non-finite mutual information")

    # converse: exact floor-quantizer entropy oracle (criterion 7)
    with tr.span("converse.floor_entropy_sweep"):
        sweep = converse.floor_entropy_sweep(GainDistribution(), 1e4, size.sweep_samples, seed=seed)
    if sweep.samples != size.sweep_samples or sweep.violations != 0:
        problems.append(f"converse: {sweep.violations} bound violations in {sweep.samples} samples")

    slope_ok = all(abs(s - target) <= MI_SLOPE_TOL for _, s, target in slope_checks)
    verdict = (
        [(rep.P, rep.Q, rep.errors, rep.mutual_information_nats) for rep in mc], mc_slope,
        [(x.P, x.legit, x.leak) for x in inter], inter_legit,
        [[(x.P, x.legit, x.leak) for x in s] for s in helper],
        [(ok, [(x.P, x.legit, x.leak) for x in s]) for ok, s in partial],
        [(label, s) for label, s, _ in slope_checks],
        (sweep.samples, sweep.violations, sweep.mean_entropy_nats),
    )
    return UnitResult(problems, verdict, {"mc": mc_ok, "slope": slope_ok})


WORKLOADS = {
    "fading_verify": Workload(fading_verify, warmup_seed=1),
    "fixed_verify": Workload(fixed_verify, warmup_seed=None),
    "slopes": Workload(slopes, warmup_seed=8),
}
