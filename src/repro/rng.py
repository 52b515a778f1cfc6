"""Seeded random draws: numpy's ``default_rng`` stream, bit for bit.

Every task-set the sweeps analyse is drawn from :func:`default_rng`, a
pure-Python port of the part of numpy's ``Generator`` API the runtime
calls, so the golden CSVs and every seeded result stay what numpy gave
while the runtime needs no numpy at all (see DESIGN.md, "A
stdlib-only runtime"):

* seeding is numpy's ``SeedSequence`` (entropy pool, hash mixing,
  spawn keys) feeding ``PCG64``'s 128-bit XSL-RR generator (M. E.
  O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
  Good Algorithms for Random Number Generation", 2014);
* :meth:`Generator.integers` is numpy's Lemire rejection (D. Lemire,
  "Fast Random Integer Generation in an Interval", ACM TOMACS 2019) on
  32-bit halves of the 64-bit outputs — the spare upper half is kept
  across calls, even across a :meth:`~Generator.random` — or on whole
  outputs for ranges wider than 32 bits;
* :meth:`Generator.random` is ``(next64 >> 11) · 2⁻⁵³`` and
  :meth:`Generator.uniform` is ``low + (high − low) · random()``.

Only IEEE-exact operations touch a draw, so no result depends on the
host's libm or SIMD dispatch.  Arguments are checked as numpy checks
them, raising the same exception types.  numpy stays the test oracle
(``tests/test_rng.py``).
"""

from __future__ import annotations

from math import copysign, isfinite
from operator import index

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_TWO_M53 = 1.0 / (1 << 53)


def default_rng(seed: int, spawn_key: tuple[int, ...] = ()) -> Generator:
    """The generator ``np.random.default_rng`` builds for these arguments.

    ``default_rng(seed)`` draws what ``np.random.default_rng(seed)``
    draws, and ``default_rng(seed, spawn_key=k)`` what
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=k))``
    draws.  The seed is required: no run draws from OS entropy.

    Raises
    ------
    TypeError
        If the seed or a spawn-key word is not an integer.
    ValueError
        If the seed or a spawn-key word is negative.
    """
    entropy = _uint32_words(seed)
    if spawn_key:
        # numpy pads the run entropy to the pool size only when a spawn
        # key follows, keeping unspawned small-seed streams unchanged.
        entropy += [0] * (_POOL_SIZE - len(entropy))
        for word in spawn_key:
            entropy += _uint32_words(word)
    words = _generate_state(_mix_entropy(entropy), 8)
    initstate = (words[1] << 96) | (words[0] << 64) | (words[3] << 32) | words[2]
    initseq = (words[5] << 96) | (words[4] << 64) | (words[7] << 32) | words[6]
    inc = ((initseq << 1) | 1) & _MASK128
    state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
    return Generator(state, inc)


class Generator:
    """A PCG64 stream with numpy ``Generator``'s scalar draws.

    Built by :func:`default_rng`; the constructor takes the raw 128-bit
    LCG state and (odd) increment.
    """

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, state: int, inc: int) -> None:
        self._state = state
        self._inc = inc
        self._spare: int | None = None  # the unused upper half of a 64-bit output

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = state >> 122
        value = (state >> 64) ^ (state & _MASK64)
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        value = self._next64()
        self._spare = value >> 32
        return value & _MASK32

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high)``, as numpy's int64 draw.

        Raises
        ------
        ValueError
            If ``high <= low`` or a bound lies outside int64.
        """
        top = high - 1
        if not _INT64_MIN <= low <= top <= _INT64_MAX:
            raise ValueError(_bounds_error(low, top))
        span = top - low
        if span < _MASK32:
            if not span:
                return low
            bound = span + 1
            # _next32(), inlined: this is the generator's hottest path.
            spare = self._spare
            if spare is None:
                value = self._next64()
                self._spare = value >> 32
                product = (value & _MASK32) * bound
            else:
                self._spare = None
                product = spare * bound
            if product & _MASK32 < bound:
                threshold = (_MASK32 - span) % bound
                while product & _MASK32 < threshold:
                    product = self._next32() * bound
            return low + (product >> 32)
        if span == _MASK32:
            return low + self._next32()
        if span == _MASK64:
            return low + self._next64()
        bound = span + 1
        product = self._next64() * bound
        if product & _MASK64 < bound:
            threshold = (_MASK64 - span) % bound
            while product & _MASK64 < threshold:
                product = self._next64() * bound
        return low + (product >> 64)

    def random(self) -> float:
        """A uniform float in ``[0, 1)`` with 53 random bits."""
        return (self._next64() >> 11) * _TWO_M53

    def uniform(self, low: float, high: float) -> float:
        """``low + (high − low) · random()``.

        Raises
        ------
        OverflowError
            If ``high − low`` is not finite.
        ValueError
            If ``high − low`` is negative (or ``−0.0``).
        """
        low = float(low)
        span = float(high) - low
        if not isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if copysign(1.0, span) < 0:
            raise ValueError("high - low < 0")
        return low + span * self.random()


def _bounds_error(low: int, top: int) -> str:
    """numpy's message for bounds ``[low, top]`` it rejects."""
    if low < _INT64_MIN:
        return "low is out of bounds for int64"
    if top > _INT64_MAX:
        return "high is out of bounds for int64"
    return "high <= 0" if low == 0 else "low >= high"


def _uint32_words(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words, at least one."""
    value = index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix_entropy(entropy: list[int]) -> list[int]:
    """SeedSequence's entropy pool for the assembled entropy words."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _generate_state(pool: list[int], n_words: int) -> list[int]:
    """SeedSequence's ``generate_state`` as 32-bit words."""
    hash_const = _INIT_B
    words = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return words
