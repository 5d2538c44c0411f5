"""Channel models, gain sampling, and AWGN generation.

Four network models are supported: a wiretap channel with M helpers, a
K-user multiple access wiretap channel (optionally with a subset of
"informed" transmitters that know the eavesdropper gains), and a K-user
interference channel with an external eavesdropper.  Gains are drawn from a
continuous distribution with bounded support, bounded away from zero, either
once (fixed mode) or i.i.d. per slot (fading mode).

Every random draw in the package is keyed by an integer tuple (seed, tag,
*indices), and one keyed schedule maps each key to its stream: the PCG64
stream that numpy's ``PCG64(SeedSequence(key))`` starts, bit for bit.
``keyed_states`` computes the starting states of many keys in batches (the
SeedSequence entropy hash vectorized over the keys), ``keyed_gains`` turns
them into gains without building a generator per draw, and ``substream`` is
the one-key view.  Regeneration is therefore reproducible bit for bit and
independent of evaluation order and batching.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import ParameterError

# Substream tags: every random draw in the package is keyed by
# (seed, tag, *indices) so streams never collide across purposes.
TAG_LEGIT = 0
TAG_EVE = 1
TAG_NOISE = 2
TAG_ALPHA = 3
TAG_SEED_VECTOR = 4
TAG_TRIAL = 5
TAG_SAMPLE = 6

# numpy's SeedSequence: a pool of 4 uint32 words, filled by hashmix/mix and
# read out by generate_state; then PCG64's seeding step (O'Neill's
# pcg_setseq_128_srandom_r) and its 128-bit LCG multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# Keys hashed per batch: bounds the temporaries whatever the number of keys.
_CHUNK = 1024


def _key_words(k: int) -> list[int]:
    """numpy's split of a non-negative int into little-endian uint32 words."""
    words = []
    while True:
        words.append(k & _MASK32)
        k >>= 32
        if not k:
            return words


def _hash_steps(h: int, mult: int) -> Iterator[tuple[int, int]]:
    """(xor, multiplier) of each successive hash step: the running hash
    constant before and after its update."""
    while True:
        nxt = h * mult & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value: np.ndarray, step: tuple[int, int]) -> np.ndarray:
    xor, mult = step
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_chunk(head: list[int], rows: np.ndarray) -> Iterator[tuple[int, int]]:
    """PCG64 (state, inc) of the keys head + row, one per row of a uint32 chunk."""
    n = len(rows)
    entropy = [np.full(n, w, np.uint32) for w in head] + list(rows.T)
    steps = _hash_steps(_INIT_A, _MULT_A)
    zero = np.zeros(n, np.uint32)
    pool = [_hashmix(entropy[i] if i < len(entropy) else zero, next(steps))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(steps)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, next(steps)))
    # generate_state(4, uint64): 8 words cycling over the pool, paired
    # little-endian into (seed high, seed low, inc high, inc low)
    steps = _hash_steps(_INIT_B, _MULT_B)
    out = [_hashmix(pool[i % _POOL_SIZE], next(steps)).astype(np.uint64) for i in range(8)]
    halves = [(out[2 * j] | out[2 * j + 1] << 32).tolist() for j in range(4)]
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(*halves):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        yield ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128, inc


def keyed_states(prefix: Sequence[int], rows) -> Iterator[tuple[int, int]]:
    """PCG64 (state, inc) of every key ``(*prefix, *row)``, in row order.

    Each pair is what ``PCG64(SeedSequence((*prefix, *row)))`` holds after
    seeding.  The shared prefix may hold any non-negative ints; ``rows`` is
    a 2-D integer array whose entries must lie in [0, 2**32).  Keys are
    hashed in batches of ``_CHUNK`` rows as they are consumed.
    """
    head = []
    for k in prefix:
        k = operator.index(k)
        if k < 0:
            raise ParameterError(f"stream key must be non-negative integers, got {tuple(prefix)}")
        head += _key_words(k)
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.dtype.kind not in "iu":
        raise ParameterError(f"stream key rows must be a 2-D integer array, got {rows.dtype} "
                             f"of shape {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() > _MASK32):
        raise ParameterError("stream key rows must lie in [0, 2**32)")
    return (pair for start in range(0, len(rows), _CHUNK)
            for pair in _seed_chunk(head, rows[start:start + _CHUNK].astype(np.uint32)))


def key_grid(*axes) -> np.ndarray:
    """Key rows of the Cartesian product of the axes, the last axis fastest."""
    mesh = np.meshgrid(*(np.asarray(a, dtype=np.int64) for a in axes), indexing="ij", copy=False)
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def _pcg64_outputs(state: int, inc: int, count: int) -> list[int]:
    """The first ``count`` 64-bit outputs of PCG64 (step, then XSL-RR)."""
    out = []
    for _ in range(count):
        state = (state * _PCG64_MULT + inc) & _MASK128
        x, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        out.append((x >> rot | x << (64 - rot)) & _MASK64)
    return out


def set_stream(bit_generator: np.random.PCG64, state: int, inc: int) -> None:
    """Put a PCG64 bit generator at the start of the stream (state, inc)."""
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}


def substream(*key: int) -> np.random.Generator:
    """Generator at the start of the stream of one integer key."""
    (state, inc), = keyed_states(key, np.empty((1, 0), np.int64))
    bit_generator = np.random.PCG64()
    set_stream(bit_generator, state, inc)
    return np.random.Generator(bit_generator)


@dataclass(frozen=True)
class GainDistribution:
    """Gain law: magnitude uniform on [magnitude_low, magnitude_high], random sign.

    Bounded support that stays away from zero keeps every channel invertible
    and gives the integrability bound E[log(1 + 1/|h|)] <= log(1 + 1/magnitude_low).
    """

    magnitude_low: float = 0.5
    magnitude_high: float = 2.0
    sign_symmetric: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.magnitude_low) and math.isfinite(self.magnitude_high)):
            raise ParameterError("distribution bounds must be finite")
        if not (0.0 < self.magnitude_low < self.magnitude_high):
            raise ParameterError(
                f"need 0 < magnitude_low < magnitude_high, got "
                f"({self.magnitude_low}, {self.magnitude_high})"
            )

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw gains; scalar when size is None, else an ndarray.

        The scalar draw is the reference that ``keyed_gains`` reproduces.
        """
        magnitude = rng.uniform(self.magnitude_low, self.magnitude_high, size)
        if not self.sign_symmetric:
            return magnitude
        sign = rng.integers(0, 2, size) * 2 - 1
        return magnitude * sign

    def contains(self, x: float) -> bool:
        if not self.sign_symmetric and x < 0:
            return False
        return self.magnitude_low <= abs(x) <= self.magnitude_high

    @property
    def integrability_bound(self) -> float:
        """log(1 + 1/magnitude_low), an upper bound on E[log(1 + 1/|h|)]."""
        return math.log1p(1.0 / self.magnitude_low)

    def to_json_dict(self) -> dict:
        return {
            "magnitude_low": self.magnitude_low,
            "magnitude_high": self.magnitude_high,
            "sign_symmetric": self.sign_symmetric,
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "GainDistribution":
        return GainDistribution(
            magnitude_low=float(doc["magnitude_low"]),
            magnitude_high=float(doc["magnitude_high"]),
            sign_symmetric=bool(doc["sign_symmetric"]),
        )


def keyed_gains(distribution: GainDistribution, prefix: Sequence[int], rows) -> np.ndarray:
    """``float(distribution.sample(substream(*prefix, *row)))`` for every row,
    bit for bit, as one float64 array and without a generator per draw.

    ``Generator.uniform`` is ``low + (high - low) * ((r0 >> 11) * 2**-53)`` on
    the stream's first output r0.  ``Generator.integers(0, 2)`` is Lemire's
    method on the low 32 bits of the second output r1 with threshold 0, that
    is bit 31 of r1; it is drawn only for a sign-symmetric law.
    """
    draws = 2 if distribution.sign_symmetric else 1
    raw = np.array([_pcg64_outputs(state, inc, draws)
                    for state, inc in keyed_states(prefix, rows)],
                   dtype=np.uint64).reshape(-1, draws)
    low, high = distribution.magnitude_low, distribution.magnitude_high
    gains = low + (high - low) * ((raw[:, 0] >> 11) * 2.0 ** -53)
    if distribution.sign_symmetric:
        gains = np.where((raw[:, 1] >> 31 & 1).astype(bool), gains, -gains)
    return gains


@dataclass(frozen=True)
class HelperModel:
    """One legitimate pair, M interference-only helpers, one eavesdropper."""

    M: int

    def __post_init__(self) -> None:
        if self.M < 0:
            raise ParameterError(f"helper count must be >= 0, got {self.M}")

    name = "helper"

    @property
    def transmitters(self) -> tuple[int, ...]:
        return tuple(range(1, self.M + 2))

    @property
    def receivers(self) -> tuple[int, ...]:
        return (1,)

    def params(self) -> dict:
        return {"M": self.M}


@dataclass(frozen=True)
class MacModel:
    """K-user multiple access wiretap channel."""

    K: int

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ParameterError(f"user count must be >= 1, got {self.K}")

    name = "mac"

    @property
    def transmitters(self) -> tuple[int, ...]:
        return tuple(range(1, self.K + 1))

    @property
    def receivers(self) -> tuple[int, ...]:
        return (1,)

    def params(self) -> dict:
        return {"K": self.K}


@dataclass(frozen=True)
class MacPartialModel:
    """MAC wiretap channel where the first m_informed users know the eavesdropper gains."""

    K: int
    m_informed: int

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ParameterError(f"user count must be >= 1, got {self.K}")
        if not (1 <= self.m_informed <= self.K):
            raise ParameterError(
                f"m_informed must be in 1..K={self.K}, got {self.m_informed}"
            )

    name = "mac_partial"

    @property
    def transmitters(self) -> tuple[int, ...]:
        return tuple(range(1, self.K + 1))

    @property
    def receivers(self) -> tuple[int, ...]:
        return (1,)

    def params(self) -> dict:
        return {"K": self.K, "m_informed": self.m_informed}


@dataclass(frozen=True)
class InterferenceModel:
    """K transmitter-receiver pairs plus an external eavesdropper."""

    K: int

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ParameterError(f"interference network needs K >= 2, got {self.K}")

    name = "interference"

    @property
    def transmitters(self) -> tuple[int, ...]:
        return tuple(range(1, self.K + 1))

    @property
    def receivers(self) -> tuple[int, ...]:
        return tuple(range(1, self.K + 1))

    def params(self) -> dict:
        return {"K": self.K}


Model = Union[HelperModel, MacModel, MacPartialModel, InterferenceModel]

_MODEL_BY_NAME = {
    "helper": HelperModel,
    "mac": MacModel,
    "mac_partial": MacPartialModel,
    "interference": InterferenceModel,
}


def model_from_json_dict(doc: Mapping) -> Model:
    kind = doc["kind"]
    if kind not in _MODEL_BY_NAME:
        raise ParameterError(f"unknown model kind {kind!r}")
    params = {k: int(v) for k, v in doc.items() if k != "kind"}
    return _MODEL_BY_NAME[kind](**params)


def legit_links(model: Model) -> list[tuple[int, int]]:
    """All (tx, rx) pairs with a legitimate-side gain."""
    return [(tx, rx) for rx in model.receivers for tx in model.transmitters]


@dataclass(frozen=True)
class ChannelRealization:
    """All channel gains of one network draw, plus the noise variance.

    ``legit_gains`` maps (tx, rx, t) to the gain from transmitter ``tx`` to
    legitimate receiver ``rx`` in slot ``t`` (slots are 1-based); ``eve_gains``
    maps (tx, t) to the gain toward the eavesdropper.  In fixed mode the gains
    are constant in t but stored per slot so fixed and fading realizations
    share one shape.
    """

    model: Model
    slots: int
    fixed: bool
    distribution: GainDistribution
    seed: int
    noise_variance: float
    legit_gains: Mapping[tuple[int, int, int], float] = field(repr=False)
    eve_gains: Mapping[tuple[int, int], float] = field(repr=False)

    def h(self, tx: int, rx: int = 1, t: int = 1) -> float:
        return self.legit_gains[(tx, rx, t)]

    def g(self, tx: int, t: int = 1) -> float:
        return self.eve_gains[(tx, t)]

    def legit_series(self, tx: int, rx: int = 1) -> np.ndarray:
        """Per-slot gains of one legitimate link as a read-only vector."""
        out = np.array([self.legit_gains[(tx, rx, t)] for t in range(1, self.slots + 1)])
        out.setflags(write=False)
        return out

    def eve_series(self, tx: int) -> np.ndarray:
        out = np.array([self.eve_gains[(tx, t)] for t in range(1, self.slots + 1)])
        out.setflags(write=False)
        return out

    def to_json_dict(self) -> dict:
        return {
            "model": {"kind": self.model.name, **self.model.params()},
            "slots": self.slots,
            "fixed": self.fixed,
            "seed": self.seed,
            "noise_variance": self.noise_variance,
            "distribution": self.distribution.to_json_dict(),
            "gains": [
                {"tx": tx, "rx": rx, "t": t, "value": v}
                for (tx, rx, t), v in sorted(self.legit_gains.items())
            ],
            "eve_gains": [
                {"tx": tx, "t": t, "value": v}
                for (tx, t), v in sorted(self.eve_gains.items())
            ],
        }

    @staticmethod
    def from_json_dict(doc: Mapping) -> "ChannelRealization":
        model = model_from_json_dict(doc["model"])
        legit = {(int(g["tx"]), int(g["rx"]), int(g["t"])): float(g["value"])
                 for g in doc["gains"]}
        eve = {(int(g["tx"]), int(g["t"])): float(g["value"])
               for g in doc["eve_gains"]}
        realization = ChannelRealization(
            model=model,
            slots=int(doc["slots"]),
            fixed=bool(doc["fixed"]),
            distribution=GainDistribution.from_json_dict(doc["distribution"]),
            seed=int(doc["seed"]),
            noise_variance=float(doc["noise_variance"]),
            legit_gains=legit,
            eve_gains=eve,
        )
        _validate_realization(realization)
        return realization


def _validate_realization(r: ChannelRealization) -> None:
    expected = {(tx, rx, t) for (tx, rx) in legit_links(r.model)
                for t in range(1, r.slots + 1)}
    if set(r.legit_gains) != expected:
        raise ParameterError("legit gain index set does not match the model")
    expected_eve = {(tx, t) for tx in r.model.transmitters
                    for t in range(1, r.slots + 1)}
    if set(r.eve_gains) != expected_eve:
        raise ParameterError("eve gain index set does not match the model")
    for v in list(r.legit_gains.values()) + list(r.eve_gains.values()):
        if v == 0.0 or not math.isfinite(v):
            raise ParameterError("all gains must be nonzero and finite")


def sample_channel(model: Model,
                   distribution: GainDistribution | None = None,
                   slots: int = 1,
                   fixed: bool = True,
                   seed: int = 0,
                   noise_variance: float = 1.0) -> ChannelRealization:
    """Draw a channel realization.

    In fading mode every (link, t) gets an independent draw; in fixed mode a
    single per-link draw is replicated across slots.  Each draw is keyed by
    (seed, tag, tx, rx, t) with t = 0 in fixed mode (rx = 0 toward the
    eavesdropper), so the result does not depend on generation order.
    """
    if distribution is None:
        distribution = GainDistribution()
    if slots < 1:
        raise ParameterError(f"slots must be >= 1, got {slots}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if noise_variance <= 0:
        raise ParameterError(f"noise variance must be > 0, got {noise_variance}")

    t_keys = [0] if fixed else range(1, slots + 1)

    def per_slot(tag: int, links: list[tuple[int, int]]) -> list[list[float]]:
        """Gains in slots 1..slots of each (tx, rx) link, keyed (seed, tag, tx, rx, t_key)."""
        index = key_grid(range(len(links)), t_keys)
        rows = np.column_stack([np.array(links)[index[:, 0]], index[:, 1]])
        draws = keyed_gains(distribution, (seed, tag), rows).reshape(len(links), len(t_keys))
        return [d * slots if fixed else d for d in draws.tolist()]

    links = legit_links(model)
    legit = {(tx, rx, t): v for (tx, rx), gains in zip(links, per_slot(TAG_LEGIT, links))
             for t, v in enumerate(gains, 1)}
    eve_links = [(tx, 0) for tx in model.transmitters]
    eve = {(tx, t): v for (tx, _), gains in zip(eve_links, per_slot(TAG_EVE, eve_links))
           for t, v in enumerate(gains, 1)}

    realization = ChannelRealization(
        model=model,
        slots=slots,
        fixed=fixed,
        distribution=distribution,
        seed=seed,
        noise_variance=noise_variance,
        legit_gains=legit,
        eve_gains=eve,
    )
    _validate_realization(realization)
    return realization


def awgn_vector(length: int, variance: float = 1.0, seed: int = 0) -> np.ndarray:
    """Seeded i.i.d. zero-mean Gaussian noise samples."""
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    if variance <= 0:
        raise ParameterError(f"variance must be > 0, got {variance}")
    rng = substream(seed, TAG_NOISE)
    out = rng.normal(0.0, math.sqrt(variance), length)
    out.setflags(write=False)
    return out
