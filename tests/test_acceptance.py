"""Acceptance suite: one test per shipped guarantee, at fixed tolerances.

Each test prints a single PASS line (visible with `pytest -s` or `-v`) and
enforces its wall-clock budget.  Tolerances and grids are pinned here and
are not configurable.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sdof import analysis, converse, interference_sets, pam, precoding
from sdof.channel import (GainDistribution, HelperModel, InterferenceModel,
                          MacModel, MacPartialModel, sample_channel)
from sdof.cli import parse_config, run
from sdof.monomial import Monomial

GRID_HIGH = (1e5, 1e6, 1e7, 1e8)
GRID_MC = (1e4, 1e5, 1e6, 1e7)


def _report(name: str, started: float, budget_s: float, detail: str = "") -> None:
    elapsed = time.time() - started
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.1f}s{suffix}")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget"


def test_criterion_1_helper_fading_sdof():
    started = time.time()
    slope_tol = 0.05
    worst = 0.0
    for M in (1, 2, 3):
        target = analysis.sdof_formula(HelperModel(M))
        assert target == Fraction(M, M + 1)
        for seed in range(10):
            r = sample_channel(HelperModel(M), fixed=False, slots=M + 1, seed=seed)
            scheme = precoding.build_helper_fading(M, r)
            legit, leak = [], []
            for P in GRID_HIGH:
                mi = analysis.scheme_mutual_information(scheme, P)
                legit.append(mi.legit[1])
                leak.append(mi.leak)
            s_y = analysis.fit_dof_slope(GRID_HIGH, legit).slope
            s_z = analysis.fit_dof_slope(GRID_HIGH, leak).slope
            worst = max(worst, abs(s_y - M), abs(s_z))
            assert abs(s_y - M) <= slope_tol, (M, seed, s_y)
            assert abs(s_z) <= slope_tol, (M, seed, s_z)
            # M message dimensions over M+1 slots: exact accounting
            assert Fraction(len(scheme.table.messages), scheme.slots) == target
    _report("1 helper fading s.d.o.f.", started, 60,
            f"worst slope deviation {worst:.4f}")


def test_criterion_2_helper_fixed_monte_carlo():
    started = time.time()
    realization = sample_channel(HelperModel(1), fixed=True, seed=8)
    scheme = pam.build_helper_scheme(1, realization, P=GRID_MC[0], delta=0.05)
    reports = [analysis.monte_carlo_error_rate(scheme, P=P, trials=10_000, seed=8)
               for P in GRID_MC]
    rates = [rep.rate for rep in reports]
    assert all(b <= a for a, b in zip(rates, rates[1:])), rates
    slope = analysis.fit_dof_slope(
        GRID_MC, [rep.reliable_rate_nats for rep in reports]).slope
    assert abs(slope - 0.5) <= 0.1, slope
    _report("2 helper fixed-gain Monte Carlo", started, 300,
            f"errors {['%.3f' % r for r in rates]}, slope {slope:.3f}")


def test_criterion_3_interference_fixed_structure():
    started = time.time()
    for K, m in [(3, 1), (3, 2), (4, 1)]:
        slots = K * (K - 1) + 2
        report = interference_sets.verify_interference_alignment(K, m)
        assert report.ok, (K, m, report.violations)
        for i in range(1, K + 2):
            assert report.set_cardinalities[f"T_{i}"] == m ** slots
            assert report.set_cardinalities[f"T~_{i}"] == (m + 1) ** slots
        expected = (K - 1) * m ** slots + (K + 1) * (m + 1) ** slots
        assert report.expected_span_size == expected
        assert all(v == expected for v in report.receiver_span.values())
    assert interference_sets.expected_span(3, 1) == 1026
    mutated = interference_sets.verify_interference_alignment(
        3, 1, beta_override={1: Monomial.one()})
    assert len(mutated.violations) >= 1
    assert all("U~1" in v and "T~_2" in v for v in mutated.violations)
    _report("3 interference fixed-gain structure", started, 60,
            "spans 1026 / 26756 / 81923, mutation flagged")


@pytest.mark.parametrize("n,budget", [(1, 120), (2, 1200)])
def test_criterion_4_interference_fading_verification(n, budget):
    started = time.time()
    K, rank_tol = 3, 1e-10
    slots = precoding.interference_slots(K, n)
    bound = (K + 1) * (n + 1) ** precoding.interference_gamma(K)
    for seed in range(1, 21):
        r = sample_channel(InterferenceModel(K), fixed=False, slots=slots,
                           seed=seed)
        pre = precoding.build_asymptotic_precoders(K, n, r)
        eq_report = precoding.verify_alignment_equations(pre, tol=rank_tol)
        assert len(eq_report.equations) == 16
        assert eq_report.ok, (n, seed, [e.generator for e in eq_report.failures])
        mats = precoding.assemble_receiver_and_eve_matrices(pre)
        for l in (1, 2, 3):
            assert precoding.numeric_rank(mats.decoders[l], rank_tol) == slots
            assert precoding.numeric_rank(mats.interference[l], rank_tol) <= bound
        assert precoding.numeric_rank(mats.eve_jamming, rank_tol) == slots
    _report(f"4 interference fading verification (n={n})", started, budget,
            f"20 realizations, M_n={slots}")


def test_criterion_5_interference_fading_leakage():
    started = time.time()
    K, n = 3, 1
    slots = precoding.interference_slots(K, n)
    r = sample_channel(InterferenceModel(K), fixed=False, slots=slots, seed=1)
    pre = precoding.build_asymptotic_precoders(K, n, r)
    leaks = [analysis.scheme_mutual_information(pre, P).leak for P in GRID_HIGH]
    slope = analysis.fit_dof_slope(GRID_HIGH, leaks).slope
    assert abs(slope) <= 0.05, slope

    mats = precoding.assemble_receiver_and_eve_matrices(pre)
    assert mats.desired_columns == 2 * n ** 4 == 2
    assert analysis.interference_fading_sdof(K, n) == Fraction(1, 11)
    series = [analysis.interference_fading_sdof(K, i) for i in range(1, 7)]
    assert all(a < b for a, b in zip(series, series[1:]))
    assert all(v < 1 for v in series)
    _report("5 interference fading leakage", started, 60,
            f"leak slope {slope:.4f}, fractions {series[0]}..{series[-1]}")


def test_criterion_6_partial_csit_mac():
    started = time.time()
    expected = {1: Fraction(2, 3), 2: Fraction(4, 5), 3: Fraction(6, 7)}
    for m in (1, 2, 3):
        K = 3
        streams = m * (K - 1)
        r = sample_channel(MacPartialModel(K, m), fixed=False,
                           slots=streams + 1, seed=1)
        scheme = precoding.build_partial_csit_fading(K, m, r)
        rng = np.random.default_rng(m)
        v = rng.uniform(-1.0, 1.0, streams)
        u = rng.uniform(-1.0, 1.0, K)
        v_hat, _ = precoding.partial_csit_decode(
            scheme.A_V @ v + scheme.A_U @ u, scheme)
        assert v_hat.shape == (streams,)
        assert float(np.max(np.abs(v_hat - v))) <= 1e-9

        leaks = [analysis.scheme_mutual_information(scheme, P).leak
                 for P in GRID_HIGH]
        assert abs(analysis.fit_dof_slope(GRID_HIGH, leaks).slope) <= 0.05
        assert analysis.sdof_formula(MacPartialModel(K, m)) == expected[m]
    _report("6 partial-CSIT MAC", started, 60,
            "decoded 2/4/6 streams, s.d.o.f. 2/3, 4/5, 6/7")


def test_criterion_7_quantizer_entropy_oracle():
    started = time.time()
    sweep = converse.floor_entropy_sweep(GainDistribution(), 1e4, 200, seed=0)
    assert sweep.samples == 200 and sweep.violations == 0
    for rep in sweep.reports:
        assert rep.entropy_nats <= rep.bound_nats + 1e-12
        assert rep.max_bin < rep.strict_bin_bound
    canonical = converse.floor_conditional_entropy(0.5, 16)
    assert canonical.entropy_nats == pytest.approx(0.8 * math.log(2), abs=1e-14)
    _report("7 quantizer entropy oracle", started, 60,
            f"mean H {sweep.mean_entropy_nats:.3f} <= mean bound "
            f"{sweep.mean_bound_nats:.3f}")


def test_criterion_8_formula_tables():
    started = time.time()
    M, K = 2, 3
    helper = analysis.sdof_formula_with_csit(HelperModel(M))
    assert (helper.with_csit, helper.without_csit) == (Fraction(2, 3), Fraction(2, 3))
    mac = analysis.sdof_formula_with_csit(MacModel(K))
    assert (mac.with_csit, mac.without_csit) == (Fraction(6, 7), Fraction(2, 3))
    inter = analysis.sdof_formula_with_csit(InterferenceModel(K))
    assert (inter.with_csit, inter.without_csit) == (Fraction(6, 5), Fraction(1))
    assert all(analysis.sdof_formula_with_csit(InterferenceModel(k)).loss
               <= Fraction(1, 4) for k in range(2, 101))

    region = analysis.mac_sdof_region(3)
    assert all(region.contains(p) for p in region.corner_points)
    assert region.contains([Fraction(2, 9)] * 3)
    assert not region.contains([Fraction(2, 3), Fraction(1, 100), Fraction(0)])
    _report("8 formula tables and region", started, 60)


def test_criterion_9_experiment_determinism(tmp_path):
    started = time.time()
    fast = {
        "helper_fading_mi": ["--M=1", "--realizations=2"],
        "helper_fixed_mc": ["--M=1", "--trials=2000", "--grid=1e4,1e5,1e6,1e7",
                            "--seed=8"],
        "interference_fixed_verify": ["--K=3", "--m=1", "--mutate=true"],
        "interference_fading_verify": ["--K=3", "--n=1", "--realizations=3"],
        "interference_fading_mi": ["--K=3", "--n=1"],
        "mac_partial": ["--K=3", "--m_informed=2"],
        "entropy_bound": ["--P=1e4", "--samples=50"],
        "sdof_table": ["--K=3", "--M=2"],
        "region": ["--K=3"],
    }
    for name, extra in fast.items():
        outputs = []
        for tag in ("x", "y"):
            args = [f"--experiment={name}", "--seed=1",
                    f"--out_json={tmp_path}/{name}_{tag}.json",
                    f"--out_csv={tmp_path}/{name}_{tag}.csv",
                    f"--out_plot={tmp_path}/{name}_{tag}_plot.csv"] + extra
            code = run(parse_config(None, args))
            assert code == 0, (name, code)
            outputs.append((tmp_path / f"{name}_{tag}.json").read_bytes())
        assert outputs[0] == outputs[1], f"{name} report not byte-stable"
        report = json.loads((tmp_path / f"{name}_x.json").read_text())
        assert report["ok"] is True
    _report("9 experiment determinism", started, 120,
            "9 experiments byte-identical")
