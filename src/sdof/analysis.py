"""Information-theoretic measurement and exact rate formulas.

Closed-form Gaussian entropies give mutual-information values in nats; their
slopes against (1/2) log P, fitted over a power grid, are the measured
degrees of freedom.  The secure-d.o.f. formulas themselves are evaluated in
exact rational arithmetic and never touch floating point.
"""
from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .channel import (HelperModel, InterferenceModel, MacModel,
                      MacPartialModel, TAG_TRIAL, key_grid, keyed_streams, standard_normals)
from .errors import CapacityError, ParameterError
from .pam import PamScheme, decode_indices, receive_decode_table
from .precoding import (MixingScheme, PrecoderSet,
                        assemble_receiver_and_eve_matrices, desired_columns,
                        interference_slots)

SdofQuery = Union[HelperModel, MacModel, MacPartialModel, InterferenceModel]

DEFAULT_POWER_GRID = tuple(10.0 ** e for e in range(2, 9))
SLOPE_FIT_POINTS = 4  # fit on the top grid points to suppress o(log P) transients
# Monte Carlo trials one call may draw; a million trials of a three-stream
# scheme peak near 170 MB of arrays (tracemalloc).
MC_TRIAL_BUDGET = 1_000_000


def gaussian_entropy(A: np.ndarray, P: float, sigma2: float = 1.0) -> float:
    """Differential entropy (nats) of A·X + N, X ~ N(0, P·I), N ~ N(0, s2·I).

    h = (1/2) log((2 pi e)^M det(P A A^T + sigma2 I)).
    """
    return _gram_entropy(_gram(A), P, sigma2)


def _gram(A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A·Aᵀ, the power-independent part of gaussian_entropy; written into
    out when it is given."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.all(np.isfinite(A)):
        raise ParameterError("matrix entries must be finite")
    return np.matmul(A, A.T, out=out)


def _gram_entropy(gram: np.ndarray, P: float, sigma2: float) -> float:
    """gaussian_entropy of a matrix given by its Gram matrix A·Aᵀ."""
    if P <= 0 or sigma2 <= 0:
        raise ParameterError("P and sigma2 must be positive")
    M = gram.shape[0]
    cov = P * gram
    cov.flat[::M + 1] += sigma2
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ParameterError("covariance lost positive definiteness")
    return 0.5 * (M * math.log(2.0 * math.pi * math.e) + logdet)


@dataclass
class SlopeReport:
    """Least-squares fit of measured values against (1/2) log P."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    slope: float
    intercept: float
    residual: float  # RMS of the fit
    target: Fraction | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "grid": list(self.grid),
            "values": list(self.values),
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
        }
        if self.target is not None:
            doc["target"] = str(self.target)
        return doc


def fit_dof_slope(grid: Sequence[float], values: Sequence[float],
                  target: Fraction | None = None) -> SlopeReport:
    grid = tuple(float(p) for p in grid)
    values = tuple(float(v) for v in values)
    if len(grid) != len(values):
        raise ParameterError("grid and values must have equal length")
    if len(grid) < 3 or len(set(grid)) != len(grid):
        raise ParameterError("need at least 3 distinct grid points")
    if max(grid) / min(grid) < 100.0:
        raise ParameterError("grid must span at least two decades")
    x = 0.5 * np.log(np.array(grid))
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, np.array(values), rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((np.array(values) - fitted) ** 2)))
    return SlopeReport(grid=grid, values=values, slope=float(coef[0]),
                       intercept=float(coef[1]), residual=residual, target=target)


def slope_fit_grid(grid: Sequence[float], values: Sequence[float],
                   points: int = SLOPE_FIT_POINTS) -> tuple[list[float], list[float]]:
    """Top `points` grid entries (by power), for transient-free slope fits."""
    order = np.argsort(grid)
    keep = order[-points:] if len(grid) > points else order
    return [grid[i] for i in keep], [values[i] for i in keep]


# ---------------------------------------------------------------------------
# exact s.d.o.f. formulas
# ---------------------------------------------------------------------------

def sdof_formula(query: SdofQuery) -> Fraction:
    """Optimal (or achievable, for the partially informed MAC) sum secure
    d.o.f. without eavesdropper CSIT."""
    if isinstance(query, HelperModel):
        return Fraction(query.M, query.M + 1)
    if isinstance(query, MacModel):
        return Fraction(query.K - 1, query.K)
    if isinstance(query, MacPartialModel):
        streams = query.m_informed * (query.K - 1)
        return Fraction(streams, streams + 1)
    if isinstance(query, InterferenceModel):
        return Fraction(query.K - 1, 2)
    raise ParameterError(f"unsupported query {query!r}")


@dataclass(frozen=True)
class CsitComparison:
    query: SdofQuery
    with_csit: Fraction
    without_csit: Fraction

    @property
    def loss(self) -> Fraction:
        return self.with_csit - self.without_csit


def sdof_formula_with_csit(query: SdofQuery) -> CsitComparison:
    """Known-eavesdropper-CSIT value next to the blind value.

    For the interference network the loss is (K-1)/(2(2K-1)), below 1/4 for
    every K; that bound is asserted here.
    """
    if isinstance(query, HelperModel):
        with_csit = Fraction(query.M, query.M + 1)
    elif isinstance(query, (MacModel, MacPartialModel)):
        K = query.K
        with_csit = Fraction(K * (K - 1), K * (K - 1) + 1)
    elif isinstance(query, InterferenceModel):
        K = query.K
        with_csit = Fraction(K * (K - 1), 2 * K - 1)
    else:
        raise ParameterError(f"unsupported query {query!r}")
    cmp = CsitComparison(query=query, with_csit=with_csit,
                         without_csit=sdof_formula(query))
    if isinstance(query, InterferenceModel) and cmp.loss > Fraction(1, 4):
        raise AssertionError(f"interference CSIT loss {cmp.loss} exceeds 1/4")
    return cmp


def interference_fading_sdof(K: int, n: int) -> Fraction:
    """Sum d.o.f. of the finite-n fading scheme: K(K-1)n^Gamma / M_n."""
    return Fraction(K * desired_columns(K, n), interference_slots(K, n))


@dataclass(frozen=True)
class MacSdofRegion:
    """The region {d_i >= 0, sum d_i <= (K-1)/K} with its corner points."""

    K: int

    @property
    def sum_bound(self) -> Fraction:
        return Fraction(self.K - 1, self.K)

    @property
    def corner_points(self) -> list[tuple[Fraction, ...]]:
        corners = []
        for i in range(self.K):
            point = [Fraction(0)] * self.K
            point[i] = self.sum_bound
            corners.append(tuple(point))
        return corners

    def halfspaces(self) -> list[tuple[tuple[Fraction, ...], Fraction]]:
        """(coefficients, rhs) rows with sum(c_i * d_i) <= rhs."""
        rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
        for i in range(self.K):
            coeffs = [Fraction(0)] * self.K
            coeffs[i] = Fraction(-1)
            rows.append((tuple(coeffs), Fraction(0)))
        rows.append((tuple([Fraction(1)] * self.K), self.sum_bound))
        return rows

    def contains(self, point: Sequence) -> bool:
        if len(point) != self.K:
            raise ParameterError(f"point must have {self.K} coordinates")
        d = [Fraction(p) for p in point]
        return all(x >= 0 for x in d) and sum(d) <= self.sum_bound

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "sum_bound": str(self.sum_bound),
            "halfspaces": [
                {"coefficients": [str(c) for c in coeffs], "rhs": str(rhs)}
                for coeffs, rhs in self.halfspaces()
            ],
            "corner_points": [[str(c) for c in p] for p in self.corner_points],
        }


def mac_sdof_region(K: int) -> MacSdofRegion:
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    return MacSdofRegion(K=K)


# ---------------------------------------------------------------------------
# scheme mutual information (Gaussian inputs, closed form)
# ---------------------------------------------------------------------------

@dataclass
class MutualInformationReport:
    P: float
    legit: dict[int, float]   # receiver -> I(messages; observation), nats
    leak: float               # I(all messages; eavesdropper observation), nats


GramPair = tuple[np.ndarray, np.ndarray]  # Grams of (everything received, its jamming part)

# scheme -> (receiver -> GramPair, eavesdropper GramPair); an entry lives as
# long as its scheme, whose matrices are read-only
_SCHEME_GRAMS = weakref.WeakKeyDictionary()


def _interference_grams(pre: PrecoderSet) -> tuple[dict[int, GramPair], GramPair]:
    """Every receiver's Grams, then the eavesdropper's, written into one
    read-only (2K + 2, M_n, M_n) buffer: one allocation instead of one per
    Gram lets glibc's dynamic mmap and trim thresholds rise past the
    temporaries of the assembly and the log-dets, which then stay in the
    heap instead of being faulted back in for every scheme."""
    K = pre.K
    grams = np.empty((2 * K + 2, pre.block_length, pre.block_length))
    for l in range(1, K + 1):
        mats = assemble_receiver_and_eve_matrices(pre, (l,), eve=False, decoders=False)
        _gram(mats.receive_mixing[l], out=grams[2 * l - 2])
        _gram(mats.interference[l], out=grams[2 * l - 1])
        del mats  # before the next assembly: one receiver's matrices at a time
    mats = assemble_receiver_and_eve_matrices(pre, ())
    _gram(mats.eve_mixing, out=grams[2 * K])
    _gram(mats.eve_jamming, out=grams[2 * K + 1])
    grams.setflags(write=False)
    return {l: (grams[2 * l - 2], grams[2 * l - 1]) for l in range(1, K + 1)}, tuple(grams[2 * K:])


def _scheme_grams(scheme) -> tuple[dict[int, GramPair], GramPair]:
    """Per legitimate receiver and for the eavesdropper, the Grams of the
    received mixing and of its jamming part; computed once per scheme.

    An interference scheme's mixing matrices are assembled one at a time,
    for receiver 1..K and then the eavesdropper, and each is dropped once
    its two Grams are written into the scheme's one Gram buffer: only the
    Grams outlive the call, and no decoder is built."""
    if not isinstance(scheme, (MixingScheme, PrecoderSet)):
        raise ParameterError(f"no mutual-information rule for {type(scheme).__name__}")
    grams = _SCHEME_GRAMS.get(scheme)
    if grams is not None:
        return grams
    if isinstance(scheme, MixingScheme):
        legit = {1: (_gram(np.hstack([scheme.A_V, scheme.A_U])), _gram(scheme.A_U))}
        leak = (_gram(np.hstack([scheme.B_V, scheme.B_U])), _gram(scheme.B_U))
    else:
        legit, leak = _interference_grams(scheme)
    grams = _SCHEME_GRAMS[scheme] = (legit, leak)
    return grams


def scheme_mutual_information(scheme, P: float) -> MutualInformationReport:
    """I(V; Y) per legitimate receiver and I(V; Z), with Gaussian inputs and
    the noise variance of the scheme's realization.

    Conditional entropies keep only the jamming part of the mixing; the
    difference of log-dets is exact at each P.  The Gram matrices do not
    depend on P, so a power sweep over one scheme forms them once.
    """
    legit, leak = _scheme_grams(scheme)
    sigma2 = scheme.realization.noise_variance

    def information(full: np.ndarray, jamming: np.ndarray) -> float:
        return _gram_entropy(full, P, sigma2) - _gram_entropy(jamming, P, sigma2)

    return MutualInformationReport(
        P=P, legit={l: information(*pair) for l, pair in legit.items()},
        leak=information(*leak))


# ---------------------------------------------------------------------------
# Monte Carlo decoding of the PAM schemes
# ---------------------------------------------------------------------------

@dataclass
class ErrorRateReport:
    """Decoding-error estimate; rate is None when no trials were run.

    ``reliable_rate_nats`` is the decode-based achievable-rate proxy: the
    summed per-stream mutual information of the hard-decision channel
    V_k -> V̂_k, estimated from the confusion counts with a Miller-Madow
    bias correction.  An outer code per stream communicates reliably at
    that rate over the induced channel, and unlike the cruder Fano bound
    (kept as ``fano_rate_nats``) it is not wiped out by the near-miss
    symbol errors that dominate at desk-scale powers.
    """

    P: float
    Q: int
    n_messages: int
    trials: int
    errors: int
    mutual_information_nats: float | None = None

    @property
    def rate(self) -> float | None:
        return None if self.trials == 0 else self.errors / self.trials

    @property
    def reliable_rate_nats(self) -> float | None:
        return self.mutual_information_nats

    @property
    def fano_rate_nats(self) -> float | None:
        if self.rate is None:
            return None
        return (1.0 - self.rate) * self.n_messages * math.log(2 * self.Q + 1)

    def to_json_dict(self) -> dict:
        return {
            "P": self.P, "Q": self.Q, "n_messages": self.n_messages,
            "trials": self.trials, "errors": self.errors,
            "rate": self.rate, "reliable_rate_nats": self.reliable_rate_nats,
            "fano_rate_nats": self.fano_rate_nats,
        }


def _stream_mutual_information(v: np.ndarray, v_hat: np.ndarray) -> float:
    """Plug-in I(V; V̂) in nats from paired integer samples, Miller-Madow
    corrected.  The terms are summed in Python floats in the order in which
    their pairs first occur."""
    n = v.size
    lo = min(int(v.min()), int(v_hat.min()))
    width = max(int(v.max()), int(v_hat.max())) - lo + 1
    codes = (v - lo) * width + (v_hat - lo)
    pairs, first, joint = np.unique(codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    a_values, b_values = np.divmod(pairs[order], width)
    left_values, left_counts = np.unique(v, return_counts=True)
    right_values, right_counts = np.unique(v_hat, return_counts=True)
    left = dict(zip(left_values.tolist(), left_counts.tolist()))
    right = dict(zip(right_values.tolist(), right_counts.tolist()))
    mi = sum(c / n * math.log(c * n / (left[a] * right[b]))
             for a, b, c in zip((a_values + lo).tolist(), (b_values + lo).tolist(),
                                joint[order].tolist()))
    correction = (pairs.size - len(left) - len(right) + 1) / (2 * n)
    return max(0.0, mi - correction)


@functools.lru_cache(maxsize=1)
def _trial_draws(seed: int, trials: int, streams: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (uniforms, noise) of every trial, each trial from its own
    keyed stream: `streams` uniforms, then one standard normal.  The last
    key is kept, so a power sweep with one seed draws once."""
    raw, states = keyed_streams((seed, TAG_TRIAL), key_grid(range(trials)), streams)
    noise = standard_normals(states)
    # Generator.random's doubles (r >> 11) * 2**-53, written over their raw
    # outputs so that no second (trials, streams) array is live
    raw >>= np.uint64(11)
    uniforms = raw.view(np.float64)
    np.multiply(raw, 2.0 ** -53, out=uniforms)
    uniforms.setflags(write=False)
    noise.setflags(write=False)
    return uniforms, noise


def monte_carlo_error_rate(scheme: PamScheme, P: float | None = None,
                           trials: int = 10_000, seed: int = 0) -> ErrorRateReport:
    """Fraction of trials in which any message symbol is misdecoded.

    Trials are seeded individually by (seed, trial index) and the underlying
    uniform/Gaussian draws are independent of Q, so runs at different powers
    with the same seed are paired sample-by-sample, and share one draw.  The
    noise variance is the one of the scheme's realization.
    """
    if trials < 0:
        raise ParameterError("trials must be >= 0")
    if trials > MC_TRIAL_BUDGET:
        raise CapacityError(f"{trials} Monte Carlo trials exceed the budget {MC_TRIAL_BUDGET}")
    if P is not None and P != scheme.P:
        scheme = scheme.with_power(P)
    report = ErrorRateReport(P=scheme.P, Q=scheme.Q,
                             n_messages=len(scheme.message_streams),
                             trials=trials, errors=0)
    if trials == 0:
        return report

    table = receive_decode_table(scheme)
    n_msg = len(scheme.message_streams)
    uniforms, noise = _trial_draws(seed, trials, n_msg + len(scheme.jamming_streams))

    Q = scheme.Q
    symbols = np.floor(uniforms * (2 * Q + 1)).astype(int) - Q
    v_true = symbols[:, :n_msg]
    jam_sum = symbols[:, n_msg:].sum(axis=1)
    coeffs = np.array([scheme.rx_value(s) * scheme.a for s in scheme.message_streams])
    noise_std = math.sqrt(scheme.realization.noise_variance)
    y = v_true @ coeffs + scheme.a * jam_sum + noise_std * noise

    decoded = decode_indices(table, y)
    v_hat, _ = table.indices_to_symbols(decoded)
    report.errors = int(np.count_nonzero(np.any(v_hat != v_true, axis=1)))
    report.mutual_information_nats = sum(
        _stream_mutual_information(v_true[:, k], v_hat[:, k])
        for k in range(n_msg))
    return report
