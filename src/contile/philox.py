"""numpy's `Generator(Philox(seed))` draws, bit for bit, without numpy.random.

The stream is Philox4x64-10 (Salmon et al., SC 2011) from counter 1, keyed
as numpy keys it from `SeedSequence(seed)`, computed here for numpy arrays of
counters at once: a 64 x 64-bit product's high half is built from 32-bit
halves.  Its 32-bit words are the low half of each 64-bit output, then the
high half.  Importing numpy.random costs a process about 5 MB of peak RSS
and 12-17 ms, which a `contile synth` or `contile factorize` run then never
pays.  Every operand of the arithmetic is `np.uint64`: numpy 1.24 promotes
uint64 with int64 to float64.
"""

from __future__ import annotations

from itertools import product

import numpy as np

M32, M64 = 2**32 - 1, 2**64 - 1
LOW, HALF = np.uint64(M32), np.uint64(32)
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
HALVES = [(np.uint64(c & M32), np.uint64(c >> 32)) for c in MULTIPLIERS]
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # the key's increment per round
TAIL_SHUFFLE = 10000, 50  # numpy shuffles the tail of range(m) past this m, for a k past m // 50


def round_keys(seed: int) -> list[tuple[np.uint64, np.uint64]]:
    """The ten round keys of numpy's `Philox(seed)`, whose key is
    `SeedSequence(seed).generate_state(2, np.uint64)`."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [seed >> s & M32 for s in range(0, max(seed.bit_length(), 1), 32)]  # SeedSequence's entropy
    mult, factor = 0x43B0D7E5, 0x931E8875

    def hashmix(value: int) -> int:
        nonlocal mult
        value, mult = value ^ mult, mult * factor & M32
        value = value * mult & M32
        return value ^ value >> 16

    def mix(dst: int, value: int) -> None:
        x = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(value)) & M32
        pool[dst] = x ^ x >> 16

    pool = [hashmix(word) for word in (words + [0] * 3)[:4]]
    for src, dst in product(range(4), range(4)):
        if src != dst:
            mix(dst, pool[src])
    for word, dst in product(words[4:], range(4)):
        mix(dst, word)
    mult, factor = 0x8B51F9DD, 0x58F38DED  # generate_state hashes the pool on
    key = sum(hashmix(value) << 32 * i for i, value in enumerate(pool))
    return [tuple(np.uint64((key >> 64 * i) + r * WEYL[i] & M64) for i in (0, 1)) for r in range(10)]


def _mulhilo(a: np.ndarray, side: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit halves of a * MULTIPLIERS[side]."""
    (b0, b1), a0, a1 = HALVES[side], a & LOW, a >> HALF
    t = a1 * b0
    t += a0 * b0 >> HALF
    a0 *= b1
    a0 += t & LOW  # the middle column of the product, with its carry in
    a1 *= b1
    a1 += t >> HALF
    a1 += a0 >> HALF
    return a1, a * np.uint64(MULTIPLIERS[side])


def outputs(keys: list, start: int, count: int) -> np.ndarray:
    """The 64-bit outputs start .. start + count - 1 of the stream keyed by `keys`."""
    first = start // 4  # counter first + 1 gives outputs 4 * first .. 4 * first + 3
    c0 = np.arange(first + 1, (start + count + 3) // 4 + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros_like(c0)
    for k0, k1 in keys:
        (h0, l0), (h1, l1) = _mulhilo(c0, 0), _mulhilo(c2, 1)
        c0, c1, c2, c3 = h1 ^ c1 ^ k0, l1, h0 ^ c3 ^ k1, l0
    out = np.empty((len(c0), 4), dtype=np.uint64)
    out[:, 0], out[:, 1], out[:, 2], out[:, 3] = c0, c1, c2, c3
    return out.reshape(-1)[start - 4 * first :][:count]


def uniform(keys: list, start: int, count: int) -> np.ndarray:
    """Doubles start .. start + count - 1 of the stream, as `Generator.random` draws
    them from its outputs x: (x >> 11) * 2**-53."""
    return (outputs(keys, start, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _words(keys: list, start: int, count: int) -> np.ndarray:
    """The 32-bit words start .. start + count - 1 of the stream, a view of its outputs."""
    x = outputs(keys, start // 2, (start + count + 1) // 2 - start // 2)
    return x.astype("<u8", copy=False).view("<u4")[start % 2 :][:count]


def bounded(keys: list, excl: np.ndarray) -> np.ndarray:
    """A draw below each bound of the uint64 array `excl` in turn, every bound in
    2 .. 2**32: numpy's `random_bounded_uint64(0, bound - 1)`, that is Lemire's
    rejection (ACM TOMACS 2019) over the 32-bit words.  A run of draws takes one
    word each up to the first rejected word; the next run restarts one word
    later, and is twice as long as the last accepted one."""
    out = np.empty(len(excl), dtype=np.uint64)
    t = w = 0  # the next draw and the next word to compute
    words = excl[:0]  # the computed words not yet spent
    run = len(excl)
    while t < len(excl):
        if not len(words):  # one word per draw left, and some to spare for rejections
            words = _words(keys, w, len(excl) - t + 64)
            w += len(words)
        n = min(run, len(excl) - t, len(words))
        scaled = words[:n] * excl[t : t + n]
        np.right_shift(scaled, HALF, out=out[t : t + n])  # the draws, up to the first rejected word
        scaled &= LOW
        maybe = np.flatnonzero(scaled < excl[t : t + n])  # numpy's bound on the rejection floor 2**32 % bound
        rejected = maybe[scaled[maybe] < np.uint64(2**32) % excl[t : t + n][maybe]]
        r = int(rejected[0]) if len(rejected) else n
        t, words, run = t + r, words[r + (r < n) :], max(64, 2 * r)
    return out


def choice(m: int, k: int, seed: int) -> np.ndarray:
    """`np.sort(Generator(Philox(seed)).choice(m, k, replace=False))`, drawn as numpy
    draws it: a shuffle of the last k places of range(m) for an m past 10000 and a
    k past m // 50, else Floyd's algorithm; numpy then shuffles the sample, which
    sorting undoes.  A population past 2**32 - 1 is refused: no such matrix can be
    held dense, and numpy would draw its 64-bit bounds from 64-bit outputs."""
    if not 0 <= k <= m:
        raise ValueError(f"cannot choose {k} of {m} without replacement")
    if m > M32:
        raise ValueError(f"a population of {m} is past 2**32 - 1")
    keys = round_keys(seed)
    if k == m:
        return np.arange(m)
    if m > TAIL_SHUFFLE[0] and k > m // TAIL_SHUFFLE[1]:
        return np.sort(_tail_shuffle(m, bounded(keys, np.arange(m - k + 1, m + 1, dtype=np.uint64)[::-1])))
    chosen: set[int] = set()
    for j, value in zip(range(m - k, m), bounded(keys, np.arange(m - k + 1, m + 1, dtype=np.uint64)).tolist()):
        chosen.add(j if value in chosen else value)
    return np.sort(np.fromiter(chosen, dtype=np.int64, count=k))


def _tail_shuffle(m: int, drawn: np.ndarray) -> np.ndarray:
    """The values the swaps i <-> drawn[t], i = m - 1 - t, leave in places m - k .. m - 1.

    Step t finalizes place i with the value place drawn[t] held: the value the
    last earlier step writing that place took from its own i, or drawn[t] if
    no step did.  Such a step's value came the same way from the last earlier
    write of its i, so each step points to that write, and jumping pointers
    finds the first write of each chain, whose value is its own i.  All of it
    is read off the writes sorted once by (place, step).
    """
    k = len(drawn)
    bits, mask = np.uint64(k.bit_length()), np.uint64((1 << k.bit_length()) - 1)  # k < 2**32: place << bits | step fits
    steps = np.arange(k, dtype=np.int64)
    writes = drawn << bits
    writes |= steps.view(np.uint64)
    writes.sort()
    place, step = (writes >> bits).view(np.int64), (writes & mask).view(np.int64)
    again = np.flatnonzero(place[1:] == place[:-1]) + 1  # step[q] reads the place step[q - 1] wrote
    ends = np.flatnonzero(np.append(place[1:] != place[:-1], True) & (place >= m - k))  # a tail place's last write
    chain = steps.copy()  # the last step before each step to write the place it finalizes, itself if none
    chain[m - 1 - place[ends]] = step[ends]
    own = ends[place[ends] == m - 1 - step[ends]]  # a step that writes its own place read the write before it
    chain[step[own]] = np.where((own > 0) & (place[own - 1] == place[own]), step[own - 1], step[own])
    while not np.array_equal(jumped := chain[chain], chain):
        chain = jumped
    out = drawn.astype(np.int64)
    out[step[again]] = m - 1 - chain[step[again - 1]]
    return out
