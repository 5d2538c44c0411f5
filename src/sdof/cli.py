"""Configuration-driven experiment runner.

Configs are flat ``key = value`` text files with command-line overrides
(``--key=value``).  Every experiment writes a deterministic JSON report
(byte-identical across reruns of the same config), a tabular CSV, and a
plot-data CSV; wall-clock metadata goes to a separate sidecar file so the
report itself stays reproducible.  Exit codes: 0 all assertions passed,
1 an assertion failed (reports still written), 2 usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, get_type_hints

import numpy as np

try:
    import resource
except ImportError:  # not on every platform: the sidecar then omits its counts
    resource = None

from . import analysis, converse, interference_sets, pam, precoding
from .analysis import DEFAULT_POWER_GRID, slope_fit_grid
from .channel import (GainDistribution, HelperModel, InterferenceModel,
                      MacModel, MacPartialModel, sample_channel, substream)
from .errors import SdofError, UsageError
from .monomial import Monomial

SCHEMA_VERSION = "1.0"


@dataclass
class ExperimentConfig:
    """All experiment knobs; unused keys are ignored by each experiment."""

    experiment: str = ""
    seed: int = -1              # mandatory
    K: int = 3
    M: int = 1
    m: int = 1                  # exponent range of the fixed-gain dimension sets
    m_informed: int = 1
    n: int = 1
    grid: tuple[float, ...] = DEFAULT_POWER_GRID
    trials: int = 10000
    realizations: int = 10
    rank_tol: float = precoding.DEFAULT_RANK_TOL
    slope_tol: float = 0.0      # 0 -> per-experiment default
    delta: float = 0.05
    P: float = 1e4
    samples: int = 200
    mutate: bool = False
    out_json: str = "results.json"
    out_csv: str = "results.csv"
    out_plot: str = "plot.csv"

    def slope_tolerance(self, default: float) -> float:
        return self.slope_tol if self.slope_tol > 0 else default


# where the artifacts go; not echoed in the report, which depends only on
# the experiment's inputs
_OUTPUT_KEYS = ("out_json", "out_csv", "out_plot")

_EXAMPLE_CONFIG = """\
experiment = interference_fading_verify
K = 3
n = 1
realizations = 5
seed = 1
rank_tol = 1e-10
out_json = results.json
out_csv = results.csv
out_plot = plot.csv
"""


def _parse_int(raw: str) -> int:
    """Integers may be written in float notation (1e4) but must be integral."""
    value = float(raw)
    if not value.is_integer():
        raise ValueError(raw)
    return int(value)


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


# one parser per ExperimentConfig field type; each raises ValueError
_PARSERS: dict[object, Callable[[str], object]] = {
    str: str,
    int: _parse_int,
    float: _parse_float,
    bool: _parse_bool,
    tuple[float, ...]: lambda raw: tuple(_parse_float(v) for v in raw.split(",")
                                         if v.strip()),
}
_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _parse_value(name: str, raw: str):
    if name not in _FIELD_TYPES:
        raise UsageError(f"unknown config key {name!r}")
    raw = raw.strip()
    try:
        return _PARSERS[_FIELD_TYPES[name]](raw)
    except ValueError:
        raise UsageError(f"bad value {raw!r} for {name}")


def parse_config(path: str | None, overrides: Sequence[str] = ()) -> ExperimentConfig:
    cfg = ExperimentConfig()
    pairs: list[tuple[str, str]] = []
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise UsageError(f"bad config line {line!r}")
                    key, value = line.split("=", 1)
                    pairs.append((key.strip(), value))
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}")
    for item in overrides:
        if not item.startswith("--") or "=" not in item:
            raise UsageError(f"overrides look like --key=value, got {item!r}")
        key, value = item[2:].split("=", 1)
        pairs.append((key.strip(), value))
    for key, value in pairs:
        setattr(cfg, key, _parse_value(key, value))
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {cfg.experiment!r}")
    if cfg.seed < 0:
        raise UsageError("seed is mandatory and must be >= 0")
    if cfg.trials < 0 or cfg.realizations < 1 or cfg.samples < 0:
        raise UsageError("counts must be non-negative (realizations >= 1)")
    if not (0 < cfg.delta < 1):
        raise UsageError("delta must be in (0, 1)")
    if not (0 < cfg.rank_tol < 1):
        raise UsageError("rank_tol must be in (0, 1)")
    # d.o.f. are read against (1/2) log P, which is 0 at P = 1
    if any(P <= 1 for P in cfg.grid):
        raise UsageError("grid powers must be > 1")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    report: dict  # its "assertions" decide the exit status
    csv_rows: list[dict]
    plot_rows: list[tuple[str, float, float]]  # (series, half_log10_P, value)


def _dof(value_nats: float, P: float) -> float:
    return value_nats / (0.5 * math.log(P))


def _assertion(name: str, ok: bool, detail: str = "") -> dict:
    return {"assertion": name, "status": "pass" if ok else "fail",
            **({"detail": detail} if detail else {})}


def _slope(grid: Sequence[float], values: Sequence[float]) -> float:
    return analysis.fit_dof_slope(*slope_fit_grid(grid, values)).slope


def _sweep(grid: Sequence[float], scheme, suffix: str = ""
           ) -> tuple[dict[str, float], list[dict], list[tuple[str, float, float]]]:
    """Mutual information over the grid as the series "leak", then "rx<l>"
    for each legitimate receiver l: the fitted slope of each series, one CSV
    row per power (P, I_leak_nats, I_rx<l>_nats...), and the plot rows of
    value / (1/2) log P, series leak_dof and legit_rx<l>_dof + suffix."""
    mis = [analysis.scheme_mutual_information(scheme, P) for P in grid]
    series = {"leak": [mi.leak for mi in mis]}
    for l in mis[0].legit if mis else ():
        series[f"rx{l}"] = [mi.legit[l] for mi in mis]
    slopes = {name: _slope(grid, values) for name, values in series.items()}
    rows = [{"P": P, **{f"I_{name}_nats": values[k] for name, values in series.items()}}
            for k, P in enumerate(grid)]
    plot = [(("leak" if name == "leak" else f"legit_{name}") + "_dof" + suffix,
             0.5 * math.log10(P), _dof(values[k], P))
            for k, P in enumerate(grid) for name, values in series.items()]
    return slopes, rows, plot


def _run_helper_fading_mi(cfg: ExperimentConfig) -> ExperimentResult:
    tol = cfg.slope_tolerance(0.05)
    M = cfg.M
    target = analysis.sdof_formula(HelperModel(M))
    rows, plot, per_real = [], [], []
    accounting = True
    for seed in range(cfg.seed, cfg.seed + cfg.realizations):
        realization = sample_channel(HelperModel(M), fixed=False, slots=M + 1,
                                     seed=seed)
        scheme = precoding.build_helper_fading(M, realization)
        accounting &= Fraction(len(scheme.message_streams), scheme.slots) == target
        slopes, seed_rows, seed_plot = _sweep(cfg.grid, scheme, f"_seed{seed}")
        s_y, s_z = slopes["rx1"], slopes["leak"]
        per_real.append({"seed": seed, "legit_slope": s_y, "leak_slope": s_z,
                         "ok": abs(s_y - M) <= tol and abs(s_z) <= tol})
        rows += [{"seed": seed, **row} for row in seed_rows]
        plot += seed_plot
    report = {"experiment": cfg.experiment, "M": M, "grid": list(cfg.grid),
              "slope_tol": tol, "target": str(target), "realizations": per_real,
              "assertions": [
                  _assertion(f"slopes within {tol} of ({M}, 0) for all realizations",
                             all(r["ok"] for r in per_real)),
                  _assertion("dimension accounting M/(M+1) exact", accounting,
                             str(target))]}
    return ExperimentResult(report, rows, plot)


def _run_helper_fixed_mc(cfg: ExperimentConfig) -> ExperimentResult:
    if cfg.trials < 1:
        raise UsageError("helper_fixed_mc needs trials >= 1")
    if not cfg.grid:
        raise UsageError("helper_fixed_mc needs a non-empty grid")
    tol = cfg.slope_tolerance(0.1)
    M = cfg.M
    realization = sample_channel(HelperModel(M), fixed=True, seed=cfg.seed)
    scheme = pam.build_helper_scheme(M, realization, P=cfg.grid[0], delta=cfg.delta)
    reports = [analysis.monte_carlo_error_rate(scheme, P=P, trials=cfg.trials,
                                               seed=cfg.seed)
               for P in cfg.grid]
    rates = [r.rate for r in reports]
    reliables = [r.reliable_rate_nats for r in reports]
    monotone = all(b <= a for a, b in zip(rates, rates[1:]))
    slope_rep = analysis.fit_dof_slope(
        *slope_fit_grid(cfg.grid, reliables), target=Fraction(M, M + 1))
    slope_ok = abs(slope_rep.slope - float(Fraction(M, M + 1))) <= tol

    rows, plot, points = [], [], []
    for rep in reports:
        scheme_p = scheme.with_power(rep.P)
        point = rep.to_json_dict()
        # minimum-distance lower bound with the uncertified existence constant
        point["min_distance_bound"] = {
            "value": pam.khintchine_groshev_bound(scheme_p.a, scheme_p.Q, M,
                                                  cfg.delta),
            "k_delta": pam.K_DELTA,
            "non_certified": True,
        }
        points.append(point)
        rows.append(rep.to_json_dict())
        plot.append(("error_rate", 0.5 * math.log10(rep.P), rep.rate))
        plot.append(("reliable_dof", 0.5 * math.log10(rep.P),
                     _dof(rep.reliable_rate_nats, rep.P)))
    report = {
        "experiment": cfg.experiment, "M": M, "delta": cfg.delta,
        "grid": list(cfg.grid), "trials": cfg.trials,
        "points": points,
        "slope": slope_rep.to_json_dict(),
        "assertions": [
            _assertion("error rate nonincreasing in P", monotone,
                       ",".join(f"{r:.5f}" for r in rates)),
            _assertion(f"reliable-rate slope within {tol} of {Fraction(M, M + 1)}",
                       slope_ok, f"{slope_rep.slope:.4f}"),
        ],
    }
    return ExperimentResult(report, rows, plot)


def _run_interference_fixed_verify(cfg: ExperimentConfig) -> ExperimentResult:
    report = interference_sets.verify_interference_alignment(cfg.K, cfg.m)
    doc = report.to_json_dict()
    doc["assertions"] = [
        _assertion("all containment/disjointness/cardinality checks pass",
                   report.ok, f"{len(report.violations)} violations"),
    ]
    if cfg.mutate:
        mutated = interference_sets.verify_interference_alignment(
            cfg.K, cfg.m, beta_override={1: Monomial.one()})
        doc["mutation"] = {"violations": mutated.violations}
        doc["assertions"].append(_assertion(
            "beta_1 := 1 mutation is flagged", not mutated.ok,
            f"{len(mutated.violations)} violations"))
    rows = [{"check": c.claim, "receiver": c.receiver, "status": c.status}
            for c in report.checks]
    return ExperimentResult(doc, rows, [])


def _run_interference_fading_verify(cfg: ExperimentConfig) -> ExperimentResult:
    K, n = cfg.K, cfg.n
    slots = precoding.interference_slots(K, n)
    bound = precoding.aligned_jamming_columns(K, n)
    precoding.check_precoder_budget(K, n)

    def receiver_ranks(pre, l: int) -> tuple[int, int]:
        """Ranks of receiver l's decoder and interference; its matrices are
        dropped on return, so one receiver's are alive at a time."""
        mats = precoding.assemble_receiver_and_eve_matrices(pre, (l,), eve=False)
        return (precoding.numeric_rank(mats.decoders[l], cfg.rank_tol),
                precoding.numeric_rank(mats.interference[l], cfg.rank_tol))

    def verify(pre) -> dict:
        """Alignment equations passed and checked, and every receiver's
        decoder and interference rank."""
        eq_report = precoding.verify_alignment_equations(pre, tol=cfg.rank_tol)
        ranks = {str(l): receiver_ranks(pre, l) for l in range(1, K + 1)}
        return {"equations_passed": sum(1 for e in eq_report.equations
                                        if e.exact_ok and e.numeric_ok),
                "equations_total": len(eq_report.equations),
                "decoder_ranks": {l: r[0] for l, r in ranks.items()},
                "interference_ranks": {l: r[1] for l, r in ranks.items()}}

    def one(seed: int) -> dict:
        realization = sample_channel(InterferenceModel(K), fixed=False,
                                     slots=slots, seed=seed)
        pre = precoding.build_asymptotic_precoders(K, n, realization)
        doc = {"seed": realization.seed, **verify(pre),
               "interference_rank_bound": bound,
               "eve_rank": precoding.numeric_rank(
                   precoding.assemble_receiver_and_eve_matrices(pre, ()).eve_jamming,
                   cfg.rank_tol)}
        doc["ok"] = (doc["equations_passed"] == doc["equations_total"]
                     and all(v == slots for v in doc["decoder_ranks"].values())
                     and all(v <= bound for v in doc["interference_ranks"].values())
                     and doc["eve_rank"] == slots)
        if cfg.mutate:
            # a fresh random Q~_1 must fail an equation or leak out of an
            # interference space
            mutation = doc["mutation"] = verify(precoding.mutate_qtilde(pre, 1, seed=seed))
            mutation["flagged"] = (
                mutation["equations_passed"] < mutation["equations_total"]
                or any(v > bound for v in mutation["interference_ranks"].values()))
        return doc

    per_real = [one(seed) for seed in range(cfg.seed, cfg.seed + cfg.realizations)]
    assertions = [_assertion(
        "all equations and rank conditions hold for every realization",
        all(r["ok"] for r in per_real))]
    if cfg.mutate:
        assertions.append(_assertion(
            "Q~_1 := random mutation is flagged for every realization",
            all(r["mutation"]["flagged"] for r in per_real)))
    report = {
        "experiment": cfg.experiment, "K": K, "n": n, "M_n": slots,
        "rank_tol": cfg.rank_tol, "realizations": per_real,
        "assertions": assertions,
    }
    rows = [{k: v for k, v in r.items() if not isinstance(v, dict)}
            for r in per_real]
    return ExperimentResult(report, rows, [])


def _run_interference_fading_mi(cfg: ExperimentConfig) -> ExperimentResult:
    tol = cfg.slope_tolerance(0.05)
    K, n = cfg.K, cfg.n
    slots = precoding.interference_slots(K, n)
    precoding.check_precoder_budget(K, n)
    realization = sample_channel(InterferenceModel(K), fixed=False,
                                 slots=slots, seed=cfg.seed)
    pre = precoding.build_asymptotic_precoders(K, n, realization)
    slopes, rows, plot = _sweep(cfg.grid, pre)
    leak_slope = slopes["leak"]
    fraction = analysis.interference_fading_sdof(K, n)
    series = [analysis.interference_fading_sdof(K, i) for i in range(1, 7)]
    limit = analysis.sdof_formula(InterferenceModel(K))
    monotone = all(a < b for a, b in zip(series, series[1:])) and series[-1] < limit
    report = {
        "experiment": cfg.experiment, "K": K, "n": n, "M_n": slots,
        "grid": list(cfg.grid), "leak_slope": leak_slope,
        "desired_dimensions_per_receiver": precoding.desired_columns(K, n),
        "sum_sdof_fraction": str(fraction),
        "sum_sdof_series": [str(f) for f in series],
        "assertions": [
            _assertion(f"leakage slope within {tol} of 0", abs(leak_slope) <= tol,
                       f"{leak_slope:.4f}"),
            _assertion(f"finite-n sum d.o.f. increases toward {limit}", monotone,
                       " < ".join(str(f) for f in series)),
        ],
    }
    return ExperimentResult(report, rows, plot)


def _run_mac_partial(cfg: ExperimentConfig) -> ExperimentResult:
    tol = cfg.slope_tolerance(0.05)
    K, m = cfg.K, cfg.m_informed
    slots = m * (K - 1) + 1
    fading = sample_channel(MacPartialModel(K, m), fixed=False, slots=slots,
                            seed=cfg.seed)
    scheme = precoding.build_partial_csit_fading(K, m, fading)

    rng = substream(cfg.seed)
    v = rng.uniform(-1.0, 1.0, m * (K - 1))
    u = rng.uniform(-1.0, 1.0, K)
    y = scheme.A_V @ v + scheme.A_U @ u
    v_hat, _ = precoding.zero_force_decode(y, scheme)
    decode_err = float(np.max(np.abs(v_hat - v)))
    decode_ok = decode_err <= 1e-9

    slopes, rows, plot = _sweep(cfg.grid, scheme)
    leak_slope = slopes["leak"]
    leak_ok = abs(leak_slope) <= tol

    formula = analysis.sdof_formula(MacPartialModel(K, m))

    fixed = sample_channel(MacPartialModel(K, m), fixed=True, seed=cfg.seed)
    fixed_scheme = pam.build_partial_csit_fixed(K, m, fixed)
    eve_classes = {fixed_scheme.eve_coeffs[s] for s in fixed_scheme.streams}
    structure_ok = (len(fixed_scheme.message_streams) == m * (K - 1)
                    and len(eve_classes) == K)

    report = {
        "experiment": cfg.experiment, "K": K, "m_informed": m, "slots": slots,
        "decode_error": decode_err, "leak_slope": leak_slope,
        "sum_sdof": str(formula),
        "assertions": [
            _assertion("noiseless decode exact to 1e-9", decode_ok,
                       f"{decode_err:.2e}"),
            _assertion(f"leakage slope within {tol} of 0", leak_ok,
                       f"{leak_slope:.4f}"),
            _assertion("fixed-gain scheme structure (streams, eve classes)",
                       structure_ok),
        ],
    }
    return ExperimentResult(report, rows, plot)


def _run_entropy_bound(cfg: ExperimentConfig) -> ExperimentResult:
    if cfg.samples < 1:
        raise UsageError("entropy_bound needs samples >= 1")
    sweep = converse.floor_entropy_sweep(GainDistribution(), cfg.P, cfg.samples,
                                         seed=cfg.seed)
    canonical = converse.floor_conditional_entropy(0.5, 16)
    canonical_ok = abs(canonical.entropy_nats - 0.8 * math.log(2)) < 1e-12
    rows = [r.to_json_dict() for r in sweep.reports]
    report = {
        "experiment": cfg.experiment,
        "sweep": sweep.to_json_dict(),
        "canonical_case": canonical.to_json_dict(),
        "assertions": [
            _assertion("zero bound violations over sampled gains", sweep.ok,
                       f"{sweep.violations} of {sweep.samples}"),
            _assertion("h=0.5, P=16 equals (4/5) log 2 exactly", canonical_ok,
                       f"{canonical.entropy_nats:.12f}"),
        ],
    }
    return ExperimentResult(report, rows, [])


def _run_sdof_table(cfg: ExperimentConfig) -> ExperimentResult:
    queries = [HelperModel(cfg.M), MacModel(cfg.K), InterferenceModel(cfg.K)]
    comparisons = [analysis.sdof_formula_with_csit(q) for q in queries]
    loss_ok = all(analysis.sdof_formula_with_csit(InterferenceModel(k)).loss
                  <= Fraction(1, 4) for k in range(2, 101))
    rows = [{"model": c.query.name,
             "parameter": next(iter(c.query.params().values())),
             "with_csit": str(c.with_csit),
             "without_csit": str(c.without_csit),
             "loss": str(c.loss)} for c in comparisons]
    report = {
        "experiment": cfg.experiment, "M": cfg.M, "K": cfg.K,
        "table": rows,
        "assertions": [
            _assertion("interference CSIT loss <= 1/4 for K in 2..100", loss_ok),
            _assertion("helper loses nothing without eavesdropper CSIT",
                       comparisons[0].loss == 0),
        ],
    }
    return ExperimentResult(report, rows, [])


def _run_region(cfg: ExperimentConfig) -> ExperimentResult:
    region = analysis.mac_sdof_region(cfg.K)
    corners_ok = all(region.contains(p) for p in region.corner_points)
    uniform = [region.sum_bound / cfg.K] * cfg.K
    uniform_ok = region.contains(uniform)
    over = [region.sum_bound, Fraction(1, 100)] + [Fraction(0)] * (cfg.K - 2)
    reject_ok = cfg.K < 2 or not region.contains(over)
    report = {
        "experiment": cfg.experiment,
        "region": region.to_json_dict(),
        "assertions": [
            _assertion("every corner point is a member", corners_ok),
            _assertion("uniform point on the sum face is a member", uniform_ok),
            _assertion("point over the sum bound is rejected", reject_ok),
        ],
    }
    rows = [{"corner": i, "point": "(" + ", ".join(str(c) for c in p) + ")"}
            for i, p in enumerate(region.corner_points)]
    return ExperimentResult(report, rows, [])


EXPERIMENTS: dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {
    "helper_fading_mi": _run_helper_fading_mi,
    "helper_fixed_mc": _run_helper_fixed_mc,
    "interference_fixed_verify": _run_interference_fixed_verify,
    "interference_fading_verify": _run_interference_fading_verify,
    "interference_fading_mi": _run_interference_fading_mi,
    "mac_partial": _run_mac_partial,
    "entropy_bound": _run_entropy_bound,
    "sdof_table": _run_sdof_table,
    "region": _run_region,
}


_FIELD_HELP = {
    "experiment": "one of: " + ", ".join(sorted(EXPERIMENTS)),
    "seed": "base random seed (mandatory, >= 0)",
    "K": "number of users / transmitter-receiver pairs",
    "M": "number of helpers",
    "m": "exponent range of the fixed-gain dimension sets",
    "m_informed": "how many MAC transmitters know the eavesdropper gains",
    "n": "exponent range of the fading precoders",
    "grid": "comma-separated power grid, e.g. 1e5,1e6,1e7,1e8",
    "trials": "Monte Carlo trials per grid point",
    "realizations": "number of seeded channel realizations",
    "rank_tol": "relative singular-value threshold for rank checks",
    "slope_tol": "slope tolerance in d.o.f. units (0 = experiment default)",
    "delta": "PAM parameter-rule delta in (0, 1)",
    "P": "power for single-power experiments",
    "samples": "sampled gains for the entropy-bound sweep",
    "mutate": "also run the adversarial mutation check (true/false)",
    "out_json": "structured report path",
    "out_csv": "tabular results path",
    "out_plot": "plot-data path (x = half log10 P, y = measured value)",
}


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        if not rows:
            fh.write("\n")
            return
        keys = list(rows[0])
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(k, "")) for k in keys) + "\n")


def _write_plot(path: str, rows: list[tuple[str, float, float]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("series,half_log10_P,value\n")
        for series, x, y in rows:
            fh.write(f"{series},{_fmt(x)},{_fmt(y)}\n")


def _usage_since(before: resource.struct_rusage) -> dict[str, float]:
    """The process's minor page faults and CPU seconds since the getrusage
    record before, and its peak resident set in MB (ru_maxrss is in KiB on
    Linux, in bytes on macOS)."""
    now = resource.getrusage(resource.RUSAGE_SELF)
    return {"minor_page_faults": now.ru_minflt - before.ru_minflt,
            "user_seconds": now.ru_utime - before.ru_utime,
            "system_seconds": now.ru_stime - before.ru_stime,
            "max_rss_mb": now.ru_maxrss / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0)}


def run(cfg: ExperimentConfig) -> int:
    """Run one experiment and write its artifacts; returns the exit status.
    The out_json + '.meta.json' sidecar holds what differs from run to run:
    the wall time and, where the resource module exists, the run's page
    faults, CPU seconds and the process's peak RSS."""
    _validate(cfg)
    started = time.time()
    usage = resource.getrusage(resource.RUSAGE_SELF) if resource else None
    result = EXPERIMENTS[cfg.experiment](cfg)
    ok = all(a["status"] == "pass" for a in result.report["assertions"])
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": {f.name: (list(cfg.grid) if f.name == "grid"
                            else getattr(cfg, f.name))
                   for f in dataclasses.fields(cfg) if f.name not in _OUTPUT_KEYS},
        "ok": ok,
        **result.report,
    }
    with open(cfg.out_json, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    meta = {"wall_seconds": time.time() - started, "finished_unix": time.time()}
    if usage is not None:
        meta.update(_usage_since(usage))
    with open(cfg.out_json + ".meta.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta) + "\n")
    _write_csv(cfg.out_csv, result.csv_rows)
    _write_plot(cfg.out_plot, result.plot_rows)
    return 0 if ok else 1


def print_schema(file=None) -> None:
    file = file or sys.stdout
    lines = [f"sdof experiment config, schema version {SCHEMA_VERSION}",
             "",
             "Flat 'key = value' lines; '#' starts a comment.  Any key can be",
             "overridden on the command line as --key=value.",
             "",
             "Keys:"]
    for f in dataclasses.fields(ExperimentConfig):
        default = getattr(ExperimentConfig(), f.name)
        if f.name == "grid":
            default = ",".join(f"{p:g}" for p in default)
        lines.append(f"  {f.name:<12} default={default!r:<24} {_FIELD_HELP[f.name]}")
    lines += ["",
              "Outputs: out_json is a deterministic JSON report (identical bytes",
              "for identical config+seed, whatever the output paths; timing",
              "lives in out_json + '.meta.json'),",
              "out_csv is tabular per-point data, out_plot has columns",
              "series,half_log10_P,value.",
              "Exit codes: 0 pass, 1 assertion failure (reports written), 2 usage.",
              "",
              "--- BEGIN EXAMPLE ---",
              _EXAMPLE_CONFIG.rstrip(),
              "--- END EXAMPLE ---"]
    print("\n".join(lines), file=file)


def _formulas_command(args: argparse.Namespace) -> int:
    model_args = {
        "helper": lambda: HelperModel(args.M),
        "mac": lambda: MacModel(args.K),
        "mac_partial": lambda: MacPartialModel(args.K, args.m_informed),
        "interference": lambda: InterferenceModel(args.K),
    }
    if args.model not in model_args:
        raise UsageError(f"unknown model {args.model!r}")
    query = model_args[args.model]()
    cmp = analysis.sdof_formula_with_csit(query)
    print(f"model: {args.model} {query.params()}")
    print(f"sum s.d.o.f. without eavesdropper CSIT: {cmp.without_csit} "
          f"(= {float(cmp.without_csit):.6f})")
    print(f"sum s.d.o.f. with eavesdropper CSIT:    {cmp.with_csit} "
          f"(= {float(cmp.with_csit):.6f})")
    print(f"loss: {cmp.loss}")
    if args.model == "mac":
        region = analysis.mac_sdof_region(args.K)
        print(f"region: d_i >= 0, sum d_i <= {region.sum_bound}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdof",
        description="Secure-degrees-of-freedom experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("config", help="path to a key=value config file")
    run_p.add_argument("overrides", nargs=argparse.REMAINDER,
                       help="--key=value overrides")
    sub.add_parser("schema", help="describe config keys and output formats")
    form_p = sub.add_parser("formulas", help="print exact s.d.o.f. formulas")
    form_p.add_argument("--model", required=True,
                        choices=["helper", "mac", "mac_partial", "interference"])
    form_p.add_argument("--K", type=int, default=3)
    form_p.add_argument("--M", type=int, default=1)
    form_p.add_argument("--m-informed", dest="m_informed", type=int, default=1)

    try:
        args = parser.parse_args(argv)
        if args.command == "schema":
            print_schema()
            return 0
        if args.command == "formulas":
            return _formulas_command(args)
        cfg = parse_config(args.config, args.overrides)
        return run(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SdofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
