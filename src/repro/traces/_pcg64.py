"""NumPy's PCG64 stream on the standard library, for random traces.

:class:`PCG64` replays ``numpy.random.default_rng(seed)`` bit for bit
for the three calls ``random_trace``'s per-task generator makes:

* the seeding: ``SeedSequence(seed)`` hashes the seed's 32-bit words into
  a four-word pool, and PCG64 takes its 128-bit state and increment from
  the pool's first four 64-bit output words;
* ``Generator.integers(low, high)`` on a scalar (:func:`span` checks the
  bounds, :meth:`PCG64.bounded` draws): Lemire's bounded draw
  (arXiv:1805.10941), on one 32-bit half-word when the range fits in 32
  bits (the other half is saved for the next 32-bit draw) and on a whole
  64-bit output otherwise;
* ``Generator.choice(n, k, replace=False)``: Floyd's algorithm followed by
  a Fisher-Yates shuffle, or, when ``n > 10000`` and ``k > n // 50``, a
  partial Fisher-Yates shuffle of the tail of ``range(n)``.

The generator is PCG-XSL-RR 128/64 (O'Neill 2014): a 128-bit LCG whose
output is the xor of the state's halves rotated by its top six bits.
``tests/traces/numpy_trace_oracle.py`` holds the NumPy form of the trace
generator, and the tests check both against each other.
"""

from __future__ import annotations

import operator

__all__ = ["PCG64", "span"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: PCG's default 128-bit LCG multiplier.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants (a four-word pool, 16-bit xorshifts).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

#: ``choice`` shuffles the tail of ``range(n)`` above this population
#: when the sample is more than ``n // 50`` of it.
_TAIL_SHUFFLE_POP = 10_000


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence``'s entropy pool, then the 64-bit words PCG64 takes."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [0] if seed == 0 else []
    while seed:
        entropy.append(seed & _M32)
        seed >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, paired little-endian.
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ (value >> 16))
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def span(low: int, high: int) -> int:
    """``Generator.integers(low, high)``'s bound checks: the ``span`` for
    which ``low + PCG64.bounded(span)`` is that call's draw."""
    high -= 1
    if low < _INT64_MIN:
        raise ValueError("low is out of bounds for int64")
    if high > _INT64_MAX:
        raise ValueError("high is out of bounds for int64")
    if low > high:
        raise ValueError("low >= high")
    return high - low


class PCG64:
    """PCG-XSL-RR 128/64 with NumPy's draws on top of it."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        w = _seed_words(seed)
        initstate = w[0] << 64 | w[1]
        initseq = w[2] << 64 | w[3]
        self._inc = (initseq << 1 | 1) & _M128
        # PCG's srandom: step from zero, add the seed state, step again.
        self._state = ((self._inc + initstate) * _MULT + self._inc) & _M128
        #: The high half-word of the last 64-bit output split by
        #: :meth:`next_uint32`, or ``None`` when none is saved.
        self._half: int | None = None

    def next_uint64(self) -> int:
        state = self._state = (self._state * _MULT + self._inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def next_uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self.next_uint64()
        self._half = x >> 32
        return x & _M32

    def bounded(self, rng: int) -> int:
        """A uniform draw from ``[0, rng]``, ``0 <= rng < 2**64``."""
        if rng == 0:
            return 0
        if rng < _M32:
            # next_uint32 inlined, LCG step and output included: this
            # branch draws nearly every value of a random trace.
            excl = rng + 1
            half = self._half
            if half is None:
                state = self._state = (self._state * _MULT + self._inc) & _M128
                x = ((state >> 64) ^ state) & _M64
                rot = state >> 122
                x = (x >> rot | x << (64 - rot)) & _M64
                self._half = x >> 32
                m = (x & _M32) * excl
            else:
                self._half = None
                m = half * excl
            if m & _M32 < excl:
                threshold = (_M32 - rng) % excl
                while m & _M32 < threshold:
                    m = self.next_uint32() * excl
            return m >> 32
        if rng == _M32:
            return self.next_uint32()
        if rng == _M64:
            return self.next_uint64()
        excl = rng + 1
        m = self.next_uint64() * excl
        if m & _M64 < excl:
            threshold = (_M64 - rng) % excl
            while m & _M64 < threshold:
                m = self.next_uint64() * excl
        return m >> 64

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)``: a draw from ``[low, high)``."""
        return low + self.bounded(span(low, high))

    def choice(self, n: int, k: int) -> list[int]:
        """``Generator.choice(n, size=k, replace=False)``, as a list, for
        ``1 <= k <= n``."""
        if k == 1:
            # Floyd's one pick (NumPy's path for every n): one draw from
            # [0, n - 1], with nothing to shuffle.
            return [self.bounded(n - 1)]
        bounded = self.bounded
        if n > _TAIL_SHUFFLE_POP and k > n // 50:
            # Shuffle positions n-1 .. n-k of range(n) into place; only the
            # touched positions are stored.
            moved: dict[int, int] = {}
            for i in range(n - 1, max(n - k, 1) - 1, -1):
                j = bounded(i)
                at_j = moved.get(j, j)
                moved[j] = moved.get(i, i)
                moved[i] = at_j
            return [moved.get(i, i) for i in range(n - k, n)]
        # Floyd: the j-th pick is a draw from [0, j], or j itself when the
        # draw was already picked; then a Fisher-Yates shuffle of the picks.
        picks: list[int] = []
        seen: set[int] = set()
        for j in range(n - k, n):
            val = bounded(j)
            if val in seen:
                val = j
            seen.add(val)
            picks.append(val)
        for i in range(k - 1, 0, -1):
            j = bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks
