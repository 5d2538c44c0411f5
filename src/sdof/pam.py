"""PAM signalling for the fixed-gain alignment schemes.

Each scheme is one `BlockTable` of streams, message V or jamming U, each on
a `Monomial` coefficient.  Every transmitter jams on 1/h_i1, so at the
legitimate receiver all jamming arrives on coefficient exactly 1, one
dimension, while at the eavesdropper it fans out over g_i/h_i1 and
saturates its signal space.  The builders here realize a table by PAM;
those of `precoding` realize the same tables slot by slot for fading gains.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .channel import (ChannelRealization, HelperModel, MacPartialModel, TAG_ALPHA, key_grid,
                      keyed_gains)
from .errors import CapacityError, ModeError, ParameterError
from .interference_sets import JAMMING, MESSAGE, Block, BlockTable, arrival, gain, gain_name
from .monomial import Monomial

DEFAULT_DECODE_BUDGET = 10_000_000
# the existence constant of the Khintchine-Groshev minimum-distance bound; no
# certified value is known, so outputs that use it are labelled non-certified
K_DELTA = 1.0


def _jamming(transmitters: int) -> tuple[Block, ...]:
    """Jamming U_i on 1/h_i1 from each transmitter i: 1 at the receiver."""
    return tuple(Block(f"U{i}", i, JAMMING, gain(i, 1).inverse())
                 for i in range(1, transmitters + 1))


@functools.lru_cache(maxsize=None)
def helper_streams(M: int) -> BlockTable:
    """Helper wiretap scheme: the legitimate transmitter sends message V_k
    on alpha_k, k = 2..M+1, and transmitter j = 1..M+1 jams U_j on 1/h_j1.
    At the receiver V_k arrives on h_11 alpha_k, at the eavesdropper on
    g_1 alpha_k."""
    return BlockTable(tuple(Block(f"V{k}", 1, MESSAGE, Monomial.gen(f"alpha_{k}"))
                            for k in range(2, M + 2)) + _jamming(M + 1))


@functools.lru_cache(maxsize=None)
def partial_csit_streams(K: int, m_informed: int) -> BlockTable:
    """Partially informed MAC scheme: informed transmitter i sends V_ij on
    g_j/(h_j1 g_i) for every j != i, and every transmitter i jams U_i on
    1/h_i1.  At the eavesdropper V_ij arrives on g_j/h_j1, exactly
    underneath U_j."""
    return BlockTable(tuple(Block(f"V{i}_{j}", i, MESSAGE,
                                  gain(j, None) / (gain(j, 1) * gain(i, None)))
                            for i in range(1, m_informed + 1)
                            for j in range(1, K + 1) if j != i) + _jamming(K))


def stream_gains(table: BlockTable, gain_value: Callable[[int, int | None], object],
                 constants: Mapping[str, object]) -> dict[str, object]:
    """The value of every generator a stream table's arrivals name: the
    constants, and gain_value(i, rx) for each transmitter i toward the
    receiver (rx 1) and the eavesdropper (rx None)."""
    return {**constants, **{gain_name(i, rx): gain_value(i, rx)
                            for i in range(1, table.K + 1) for rx in (1, None)}}


@dataclass(frozen=True)
class PamScheme:
    """A stream table realized by PAM, with its coefficient values.

    The constellation is the 2Q+1 points a*{-Q..Q}.  ``values`` maps
    generator names (the gains and alpha_k) to their sampled numeric values.
    """

    table: BlockTable
    realization: ChannelRealization
    P: float
    delta: float
    Q: int
    a: float
    gamma: float
    values: Mapping[str, float]

    def rx_value(self, stream: Block) -> float:
        """Numeric receive coefficient of one stream at the legitimate receiver."""
        return arrival(stream, 1).evaluate(self.values)

    def with_power(self, P: float, delta: float | None = None) -> "PamScheme":
        """Same coefficients and gains, parameters re-derived for a new power."""
        delta = self.delta if delta is None else delta
        # receive dimensions: the messages and the aligned jamming
        Q, a, gamma = _pam_params(P, len(self.table.messages) + 1, delta, self._peak_sums())
        return replace(self, P=P, delta=delta, Q=Q, a=a, gamma=gamma)

    def _peak_sums(self) -> list[float]:
        """Per transmitter, the sum of |coefficient| over its streams."""
        sums: dict[int, float] = {}
        for b in self.table.blocks:
            sums[b.owner] = sums.get(b.owner, 0.0) + abs(b.coefficient.evaluate(self.values))
        return [sums[tx] for tx in sorted(sums)]


def _pam_params(P: float, receive_dim: int, delta: float,
                peak_sums: list[float]) -> tuple[int, float, float]:
    """Constellation parameters (Q, a, gamma).

    Q = floor(P^((1-delta)/(2(receive_dim+delta)))), clamped to >= 1, and
    gamma is the largest constant that keeps every transmitter inside
    |X| <= sqrt(P): gamma = min over transmitters of 1/peak_sum, where a
    peak sum adds |coefficient| over the transmitter's streams.
    """
    if P <= 1:
        raise ParameterError(f"power must exceed 1, got {P}")
    if not (0 < delta < 1):
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    exponent = (1.0 - delta) / (2.0 * (receive_dim + delta))
    Q = max(1, math.floor(P ** exponent))
    gamma = min(1.0 / s for s in peak_sums)
    a = gamma * math.sqrt(P) / Q
    return Q, a, gamma


def khintchine_groshev_bound(a: float, Q: int, M: int, delta: float) -> float:
    """Minimum-distance lower bound K_DELTA * a / ((M+1)Q)^(M+delta)."""
    if a <= 0 or Q < 1 or M < 0:
        raise ParameterError("all arguments must be positive (M >= 0)")
    return K_DELTA * a / ((M + 1) * Q) ** (M + delta)


def _pam_scheme(table: BlockTable, realization: ChannelRealization, P: float, delta: float,
                constants: Mapping[str, float]) -> PamScheme:
    # placeholders: with_power derives (Q, a, gamma) from the coefficients
    return PamScheme(
        table, realization, P=P, delta=delta, Q=0, a=0.0, gamma=0.0,
        values=stream_gains(table, lambda i, rx: realization.g(i) if rx is None
                            else realization.h(i, rx), constants),
    ).with_power(P)


def build_helper_scheme(M: int, realization: ChannelRealization,
                        P: float = 1e6, delta: float = 0.05) -> PamScheme:
    """Helper wiretap scheme for fixed gains (see helper_streams).  The
    alpha_k are drawn from the gain distribution, independent of all gains,
    which makes them rationally independent almost surely."""
    if not isinstance(realization.model, HelperModel) or realization.model.M != M:
        raise ModeError(f"realization is not a helper({M}) model")
    if not realization.fixed:
        raise ModeError("the PAM helper scheme requires fixed gains")

    alphas = keyed_gains(realization.distribution, (realization.seed, TAG_ALPHA, 0),
                         key_grid(range(2, M + 2)))
    return _pam_scheme(helper_streams(M), realization, P, delta,
                       {f"alpha_{k}": alpha for k, alpha in enumerate(alphas.tolist(), 2)})


def build_partial_csit_fixed(K: int, m_informed: int,
                             realization: ChannelRealization,
                             P: float = 1e6, delta: float = 0.05) -> PamScheme:
    """Partially informed MAC scheme for fixed gains (see
    partial_csit_streams): at the receiver all U_i align on coefficient 1."""
    model = realization.model
    if not isinstance(model, MacPartialModel) or model.K != K:
        raise ModeError(f"realization is not a mac_partial({K}, ...) model")
    if model.m_informed != m_informed:
        raise ModeError("m_informed does not match the realization model")
    if not realization.fixed:
        raise ModeError("the fixed-gain scheme requires fixed gains")
    if m_informed * (K - 1) == 0:
        raise ParameterError(f"mac_partial({K}, {m_informed}) has no message streams")
    return _pam_scheme(partial_csit_streams(K, m_informed), realization, P, delta, {})


@dataclass(frozen=True)
class ReceiveTable:
    """Sorted enumeration of the noiseless receive constellation.

    Points are indexed lexicographically over (message symbols..., jamming
    sum); decoding picks the value nearest to the observation and resolves
    exact ties toward the lexicographically smallest point.
    """

    scheme: PamScheme
    shape: tuple[int, ...]
    unique_values: np.ndarray
    representative: np.ndarray  # lexicographic-min flat index per unique value

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def indices_to_symbols(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat point indices -> (message symbol matrix, jamming sums)."""
        parts = np.unravel_index(flat, self.shape)
        Q = self.scheme.Q
        msgs = np.stack([p - Q for p in parts[:-1]], axis=-1) if len(parts) > 1 \
            else np.empty(np.shape(flat) + (0,), dtype=int)
        jam_span = len(self.scheme.table.jamming) * Q
        return msgs, parts[-1] - jam_span


def receive_decode_table(scheme: PamScheme,
                         budget: int = DEFAULT_DECODE_BUDGET) -> ReceiveTable:
    """Enumerate the receive constellation, or fail on the point budget."""
    Q = scheme.Q
    n_msg = len(scheme.table.messages)
    jam_span = len(scheme.table.jamming) * Q
    shape = (2 * Q + 1,) * n_msg + (2 * jam_span + 1,)
    points = int(np.prod([int(s) for s in shape], dtype=object))
    if points > budget:
        raise CapacityError(
            f"receive constellation has {points} points, over the budget {budget}; "
            "shrink Q or the stream count"
        )
    coeffs = [scheme.rx_value(b) for b in scheme.table.messages]
    axes = [np.arange(-Q, Q + 1) * (scheme.a * c) for c in coeffs]
    axes.append(np.arange(-jam_span, jam_span + 1) * scheme.a)
    values = np.zeros(shape)
    for axis_idx, axis in enumerate(axes):
        expand = [None] * len(shape)
        expand[axis_idx] = slice(None)
        values = values + axis[tuple(expand)]
    flat = values.ravel()  # C order = lexicographic in the symbol tuple
    order = np.lexsort((np.arange(flat.size), flat))
    sorted_vals = flat[order]
    uniq, first = np.unique(sorted_vals, return_index=True)
    return ReceiveTable(scheme=scheme, shape=shape,
                        unique_values=uniq, representative=order[first])


def decode_indices(table: ReceiveTable, y: np.ndarray) -> np.ndarray:
    """Nearest-point flat indices for a batch of observations."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    uniq, rep = table.unique_values, table.representative
    pos = np.searchsorted(uniq, y)
    left = np.clip(pos - 1, 0, uniq.size - 1)
    right = np.clip(pos, 0, uniq.size - 1)
    d_left = np.abs(y - uniq[left])
    d_right = np.abs(y - uniq[right])
    take_right = (d_right < d_left) | ((d_right == d_left) & (rep[right] < rep[left]))
    return np.where(take_right, rep[right], rep[left])

