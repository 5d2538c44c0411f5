"""Channel models and gain sampling.

Four network models are supported: a wiretap channel with M helpers, a
K-user multiple access wiretap channel (optionally with a subset of
"informed" transmitters that know the eavesdropper gains), and a K-user
interference channel with an external eavesdropper.  Gains are drawn from a
continuous distribution with bounded support, bounded away from zero, either
once (fixed mode) or i.i.d. per slot (fading mode).

Every random draw in the package is keyed by an integer tuple (seed, tag,
*indices), and one keyed schedule maps each key to its stream: the PCG64
stream that numpy's ``PCG64(SeedSequence(key))`` starts, bit for bit.
``keyed_streams`` is the one array kernel behind it: numpy's SeedSequence
entropy hash, PCG64's seeding, its 128-bit LCG step and its XSL-RR output
(O'Neill 2014), all run on uint64 arrays over many keys at once.
``keyed_gains`` turns the raw outputs into gains and ``standard_normals``
into numpy's ziggurat normals, without a generator per draw;
``keyed_states`` and ``substream`` are views of the kernel for one stream
at a time.  Regeneration is therefore reproducible bit for bit and
independent of evaluation order and batching.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ParameterError

# Substream tags: every random draw in the package is keyed by
# (seed, tag, *indices) so streams never collide across purposes.
TAG_LEGIT = 0
TAG_EVE = 1
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
_CHUNK = 4096


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


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) of the first ``count`` hash steps, as read-only
    uint32 columns, one row per step."""
    steps = np.array(list(itertools.islice(_hash_steps(init, mult), count)), np.uint32)
    steps.setflags(write=False)
    return steps[:, :1], steps[:, 1:]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _hash_chunk(head: list[int], rows: np.ndarray) -> np.ndarray:
    """SeedSequence(head + row).generate_state(4, uint64) of each row of a
    uint32 chunk, as a (4, n) uint64 array (seed high, seed low, inc high,
    inc low).

    The pool is one (4, n) array.  The hash steps that feed one source word
    into the pool differ only in their constants, so each source word costs
    one hashmix and one mix over all its destinations."""
    n, c = rows.shape
    entropy = np.zeros((max(len(head) + c, _POOL_SIZE), n), np.uint32)
    entropy[:len(head)] = np.array(head, np.uint32)[:, None]
    entropy[len(head):len(head) + c] = rows.T
    extra = entropy[_POOL_SIZE:]
    # pool word i from entropy word i (0 past the end); then every pool word
    # into each other one, in source order; then each further word into all
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * len(extra))
    pool = _hashmix(entropy[:_POOL_SIZE], xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        steps = slice(step, step + len(dst))
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[steps], mult[steps]))
        step += len(dst)
    for word in extra:
        steps = slice(step, step + _POOL_SIZE)
        pool = _mix(pool, _hashmix(word, xor[steps], mult[steps]))
        step += _POOL_SIZE
    # generate_state(4, uint64): 8 words cycling over the pool, paired
    # little-endian into 64-bit halves
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 8)
    out = _hashmix(np.tile(pool, (2, 1)), xor, mult).astype(np.uint64)
    return out[0::2] | out[1::2] << _U32


# The 128-bit PCG64 arithmetic runs on uint64 (high, low) halves; numpy
# wraps uint64 products and sums mod 2**64.
_U1, _U8, _U9, _U32, _U58, _U63 = (np.uint64(s) for s in (1, 8, 9, 32, 58, 63))
_LOW32 = np.uint64(_MASK32)
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64)
_MULT_LIMBS = np.uint64(_PCG64_MULT & _MASK32), np.uint64(_PCG64_MULT >> 32 & _MASK32)


def _lcg(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * MULT + (inc_hi, inc_lo) mod 2**128.  The low halves'
    full 128-bit product is formed from 32-bit limbs."""
    m0, m1 = _MULT_LIMBS
    x0, x1 = lo & _LOW32, lo >> _U32
    p00, p01, p10 = x0 * m0, x0 * m1, x1 * m0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    prod_lo = mid << _U32 | p00 & _LOW32
    prod_hi = (x1 * m1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
               + hi * _MULT_LO + lo * _MULT_HI)
    new_lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (new_lo < inc_lo), new_lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output of a state: high ^ low, rotated right by the top 6 bits."""
    x, rot = hi ^ lo, hi >> _U58
    return x >> rot | x << (-rot & _U63)


def _seed_chunk(head: list[int], rows: np.ndarray, states: np.ndarray) -> None:
    """Write into ``states`` (n, 4) the PCG64 (state high, state low, inc
    high, inc low) of the keys head + row, one per row of a uint32 chunk:
    inc = seq << 1 | 1 and state = (inc + seed) * MULT + inc (O'Neill's
    pcg_setseq_128_srandom_r)."""
    seed_hi, seed_lo, seq_hi, seq_lo = _hash_chunk(head, rows)
    inc_hi, inc_lo = seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < seed_lo)
    states[:, 0], states[:, 1] = _lcg(hi, lo, inc_hi, inc_lo)
    states[:, 2], states[:, 3] = inc_hi, inc_lo


def _draw(states: np.ndarray, out: np.ndarray) -> None:
    """Advance the (n, 4) streams ``states`` in place by one output per
    column of ``out`` (n, draws), writing the outputs there."""
    hi, lo, inc_hi, inc_lo = states.T
    for d in range(out.shape[1]):
        hi, lo = _lcg(hi, lo, inc_hi, inc_lo)
        out[:, d] = _xsl_rr(hi, lo)
    states[:, 0], states[:, 1] = hi, lo


def keyed_streams(prefix: Sequence[int], rows, draws: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``draws`` raw 64-bit outputs of the stream of every key
    ``(*prefix, *row)``, and the stream's state after them.

    Returns ``(outputs, states)``: ``outputs[i]`` is what
    ``PCG64(SeedSequence((*prefix, *rows[i]))).random_raw(draws)`` gives, and
    ``states[i]`` the uint64 (state high, state low, inc high, inc low) that
    generator then holds.  The shared prefix may hold any non-negative ints;
    ``rows`` is a 2-D integer array whose entries must lie in [0, 2**32).
    Keys are hashed, seeded and stepped as arrays, ``_CHUNK`` rows at a time.
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
    outputs = np.empty((len(rows), draws), np.uint64)
    states = np.empty((len(rows), 4), np.uint64)
    for start in range(0, len(rows), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        _seed_chunk(head, rows[chunk].astype(np.uint32), states[chunk])
        _draw(states[chunk], outputs[chunk])
    return outputs, states


def _stream(row) -> tuple[int, int]:
    """(state, inc) as ints, from one row of a ``keyed_streams`` state array."""
    state_hi, state_lo, inc_hi, inc_lo = (int(w) for w in row)
    return state_hi << 64 | state_lo, inc_hi << 64 | inc_lo


def keyed_states(prefix: Sequence[int], rows) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of every key ``(*prefix, *row)``, in row order:
    what ``PCG64(SeedSequence((*prefix, *row)))`` holds after seeding."""
    return [_stream(row) for row in keyed_streams(prefix, rows, 0)[1]]


def key_grid(*axes) -> np.ndarray:
    """Key rows of the Cartesian product of the axes, the last axis fastest."""
    mesh = np.meshgrid(*(np.asarray(a, dtype=np.int64) for a in axes), indexing="ij", copy=False)
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


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


# ---------------------------------------------------------------------------
# numpy's ziggurat standard normal (Marsaglia & Tsang 2000) on raw outputs
# ---------------------------------------------------------------------------

_MASK52 = np.uint64((1 << 52) - 1)
_PCG64_MULT_INV = pow(_PCG64_MULT, -1, 1 << 128)


def _ziggurat_threshold(fast, guess: int) -> int:
    """The smallest x in [0, 2**52] with ``fast(x)`` false, for a ``fast``
    that holds exactly below it: gallop out from the guess until the answer
    is bracketed, then bisect.  Two probes when the guess is right."""
    top = 1 << 52
    near = min(max(guess, 0), top - 1)
    up, step = fast(near), 1
    while True:
        far = near + step if up else near - step
        if not 0 <= far < top or fast(far) != up:
            break
        near, step = far, 2 * step
    lo, hi = (near, min(far, top)) if up else (max(far, -1), near)
    while hi - lo > 1:   # fast at lo (or lo = -1), not at hi
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fast(mid) else (lo, mid)
    return hi


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables ``(ki, wi)``, read back from numpy itself.

    ``Generator.standard_normal`` takes one raw output r and splits it into
    idx = r & 0xff, a sign bit (r >> 8) & 1 and rabs = (r >> 9) & (2**52 - 1).
    When rabs < ki[idx] it returns ±rabs·wi[idx] and has used r alone; else
    it takes the slow path, which draws more.  Each probe puts a PCG64 where
    its next two outputs are chosen (r, then 0 or 1, so the slow path's next
    uniform is 0) and records the value and whether r alone was used.
    rabs = 1 gives wi[idx] (for idx = 1, where ki is 0, a slow-path value
    that only serves as a guess); ki[idx] is then the first rabs off the
    fast path, searched from the guess 2**52·wi[idx−1]/wi[idx] (the layer
    ratio of the ziggurat's construction; wi[255]/wi[0] for idx = 0).
    """
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)

    def probe(idx: int, rabs: int) -> tuple[float, bool]:
        r = rabs << 9 | idx
        # states below 2**64 output themselves (rotation 0); inc makes the
        # state r step to (r + 1) & 1, whose output makes the next uniform 0,
        # and is odd as PCG64 requires
        inc = ((r + 1 & 1) - r * _PCG64_MULT) & _MASK128
        set_stream(bit_generator, (r - inc) * _PCG64_MULT_INV & _MASK128, inc)
        value = rng.standard_normal()
        return value, bit_generator.state["state"]["state"] == r

    wi, fast_at_one = (np.array(column) for column in zip(*(probe(idx, 1) for idx in range(256))))
    guesses = np.where(fast_at_one, 2.0 ** 52 * np.roll(wi, 1) / wi, 0.0)
    ki = np.array([_ziggurat_threshold(lambda rabs: probe(idx, rabs)[1], int(guesses[idx]))
                   for idx in range(256)], np.uint64)
    ki.setflags(write=False)
    wi.setflags(write=False)
    return ki, wi


def standard_normals(states: np.ndarray) -> np.ndarray:
    """``Generator.standard_normal()`` of the PCG64 stream at each row of the
    (n, 4) uint64 ``states`` (as ``keyed_streams`` returns them), bit for bit.

    The ziggurat's fast path runs on the raw outputs as arrays.  The rows
    that leave it (about 1.2 %, and every idx = 1) are put one by one into a
    numpy generator at their state, which draws the normal itself.
    """
    ki, wi = _ziggurat_tables()
    normals = np.empty(len(states))
    slow = []
    for start in range(0, len(states), _CHUNK):
        chunk = states[start:start + _CHUNK]
        raw = np.empty((len(chunk), 1), np.uint64)
        _draw(chunk.copy(), raw)
        r = raw[:, 0]
        idx = (r & np.uint64(0xFF)).astype(np.intp)
        rabs = r >> _U9 & _MASK52
        x = rabs * wi[idx]
        normals[start:start + len(chunk)] = np.where((r >> _U8 & _U1).astype(bool), -x, x)
        slow += (start + np.flatnonzero(rabs >= ki[idx])).tolist()
    if slow:
        bit_generator = np.random.PCG64()
        rng = np.random.Generator(bit_generator)
        for i in slow:
            set_stream(bit_generator, *_stream(states[i]))
            normals[i] = rng.standard_normal()
    return normals


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


def keyed_gains(distribution: GainDistribution, prefix: Sequence[int], rows) -> np.ndarray:
    """``float(distribution.sample(substream(*prefix, *row)))`` for every row,
    bit for bit, as one float64 array and without a generator per draw.

    ``Generator.uniform`` is ``low + (high - low) * ((r0 >> 11) * 2**-53)`` on
    the stream's first output r0.  ``Generator.integers(0, 2)`` is Lemire's
    method on the low 32 bits of the second output r1 with threshold 0, that
    is bit 31 of r1; it is drawn only for a sign-symmetric law.
    """
    draws = 2 if distribution.sign_symmetric else 1
    raw, _ = keyed_streams(prefix, rows, draws)
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

def legit_links(model: Model) -> list[tuple[int, int]]:
    """All (tx, rx) pairs with a legitimate-side gain, transmitter-major."""
    return list(itertools.product(model.transmitters, model.receivers))


def _position(index: int, count: int) -> int:
    """0-based position of a 1-based index; KeyError outside 1..count."""
    if not 1 <= index <= count:
        raise KeyError(index)
    return index - 1


def _indices(shape: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """1-based index tuples of an array of this shape, in C order."""
    return itertools.product(*(range(1, n + 1) for n in shape))


class _GainView(Mapping):
    """Read-only mapping from 1-based index tuples to a gain array's entries."""

    def __init__(self, gains: np.ndarray):
        self._gains = gains

    def __getitem__(self, key) -> float:
        if not isinstance(key, tuple) or len(key) != self._gains.ndim:
            raise KeyError(key)
        return float(self._gains[tuple(map(_position, key, self._gains.shape))])

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return _indices(self._gains.shape)

    def __len__(self) -> int:
        return self._gains.size


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """All channel gains of one network draw, plus the noise variance.

    ``legit[tx - 1, rx - 1, t - 1]`` is the gain from transmitter ``tx`` to
    legitimate receiver ``rx`` in slot ``t`` (all 1-based) and
    ``eve[tx - 1, t - 1]`` the gain toward the eavesdropper; both arrays are
    read-only.  ``legit_gains`` and ``eve_gains`` are read-only mappings of
    the same gains, keyed (tx, rx, t) and (tx, t).  In fixed mode the gains are constant in
    t but stored per slot so fixed and fading realizations share one shape.
    """

    model: Model
    slots: int
    fixed: bool
    distribution: GainDistribution
    seed: int
    noise_variance: float
    legit: np.ndarray = field(repr=False)
    eve: np.ndarray = field(repr=False)

    @property
    def legit_gains(self) -> Mapping[tuple[int, int, int], float]:
        return _GainView(self.legit)

    @property
    def eve_gains(self) -> Mapping[tuple[int, int], float]:
        return _GainView(self.eve)

    def h(self, tx: int, rx: int = 1, t: int = 1) -> float:
        return self.legit_gains[(tx, rx, t)]

    def g(self, tx: int, t: int = 1) -> float:
        return self.eve_gains[(tx, t)]

    def legit_series(self, tx: int, rx: int = 1) -> np.ndarray:
        """Per-slot gains of one legitimate link as a read-only vector."""
        transmitters, receivers, _ = self.legit.shape
        return self.legit[_position(tx, transmitters), _position(rx, receivers)]

    def eve_series(self, tx: int) -> np.ndarray:
        return self.eve[_position(tx, len(self.eve))]


def _realization(legit: np.ndarray, eve: np.ndarray, **fields) -> ChannelRealization:
    """A ChannelRealization over read-only C-ordered copies of the gains, in
    the (tx, rx, t) and (tx, t) shapes of its model; every gain must be
    nonzero and finite."""
    model, slots = fields["model"], fields["slots"]
    legit = np.array(legit, dtype=float, order="C").reshape(
        len(model.transmitters), len(model.receivers), slots)
    eve = np.array(eve, dtype=float, order="C").reshape(len(model.transmitters), slots)
    for gains in (legit, eve):
        if not np.all(np.isfinite(gains) & (gains != 0.0)):
            raise ParameterError("all gains must be nonzero and finite")
        gains.setflags(write=False)
    return ChannelRealization(legit=legit, eve=eve, **fields)


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

    def per_slot(tag: int, links: list[tuple[int, int]]) -> np.ndarray:
        """Gains in slots 1..slots of each (tx, rx) link, keyed (seed, tag, tx, rx, t_key)."""
        index = key_grid(range(len(links)), t_keys)
        rows = np.column_stack([np.array(links)[index[:, 0]], index[:, 1]])
        draws = keyed_gains(distribution, (seed, tag), rows).reshape(len(links), len(t_keys))
        return np.repeat(draws, slots, axis=1) if fixed else draws

    return _realization(
        model=model,
        slots=slots,
        fixed=fixed,
        distribution=distribution,
        seed=seed,
        noise_variance=noise_variance,
        legit=per_slot(TAG_LEGIT, legit_links(model)),
        eve=per_slot(TAG_EVE, [(tx, 0) for tx in model.transmitters]),
    )
