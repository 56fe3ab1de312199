"""Shared numeric data model: datasets, index sets, symmetric matrices, RNG.

Conventions used everywhere in the package:
  * rows are time points, columns are variables;
  * column/node indices in the public API are 1-based (internally 0-based);
  * all floating point is float64;
  * every random draw comes from an RngSpec substream: NumPy's PCG64 seeded
    exactly as by SeedSequence(seed, spawn_key=(stream digest, *key)), with
    the seed hash run for SEED_BLOCK keys at once (``_block_state``); only
    this module constructs NumPy RNG objects.
"""
from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import EmptyBlock, InsufficientData, InvalidDimension, \
    InvalidInput

CENTER_TOL = 1e-9
# a Dataset needs this many time points
MIN_N = 4


@dataclass(frozen=True)
class Dataset:
    """An n x p matrix of observations, row t = observation y_t."""

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise InvalidDimension("data must be a 2-d array")
        n, p = values.shape
        if n < MIN_N:
            raise InsufficientData(
                f"need n >= {MIN_N} observations, got {n}")
        if p < 2:
            raise InvalidDimension(f"need p >= 2 variables, got {p}")
        if self.centered:
            col_sums = values.sum(axis=0)
            if np.any(np.abs(col_sums) > CENTER_TOL * n):
                raise InvalidDimension("centered dataset has non-zero column sums")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def center(data: Dataset) -> Dataset:
    """Subtract each column's sample mean. Idempotent."""
    if data.centered:
        return data
    return center_in_place(data.values.copy())


def center_in_place(values: np.ndarray) -> Dataset:
    """Subtract each column's sample mean from the n x p float64 array
    ``values`` itself, and return it as a centred Dataset (no copy).
    InvalidInput, before any arithmetic, when a value is not finite."""
    if not np.all(np.isfinite(values)):
        raise InvalidInput("data contains NaN or infinite values")
    values -= values.mean(axis=0)
    # kill residual rounding so the centered invariant holds exactly enough
    values -= values.mean(axis=0)
    return Dataset(values, centered=True)


@dataclass(frozen=True)
class IndexSet:
    """An ordered list of 1-based (j1, j2) pairs.

    The order of ``pairs`` is the bijection chi: position l (1-based) maps to
    pairs[l-1].
    """

    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64)
        object.__setattr__(self, "pairs", pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
            raise InvalidDimension("pairs must be a non-empty (r, 2) array")
        if pairs.min() < 1:
            raise InvalidDimension("pair indices are 1-based and must be >= 1")
        ordered = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        if np.any((ordered[1:] == ordered[:-1]).all(axis=1)):
            raise InvalidDimension("pairs must be distinct")

    @property
    def r(self) -> int:
        return self.pairs.shape[0]

    def rows(self) -> np.ndarray:
        """0-based first indices."""
        return self.pairs[:, 0] - 1

    def cols(self) -> np.ndarray:
        """0-based second indices."""
        return self.pairs[:, 1] - 1


def index_set_from_mask(mask: np.ndarray) -> IndexSet:
    """The 1-based (j1, j2) with mask[j1 - 1, j2 - 1] true, row-major."""
    return IndexSet(np.column_stack(np.nonzero(mask)) + 1)


def index_set_all_offdiag(p: int) -> IndexSet:
    """All (j1, j2) with j1 != j2, row-major, r = p(p-1)."""
    if p < 2:
        raise InvalidDimension(f"need p >= 2, got {p}")
    return index_set_from_mask(~np.eye(p, dtype=bool))


def index_set_from_blocks(groups, block_pair) -> IndexSet:
    """Pairs I_{h1} x I_{h2} in row-major order.

    ``groups`` maps group labels to lists of 1-based column indices; the two
    groups must be disjoint unless h1 == h2, in which case diagonal pairs are
    excluded.
    """
    h1, h2 = block_pair
    i1 = np.asarray(groups[h1], dtype=np.int64)
    i2 = np.asarray(groups[h2], dtype=np.int64)
    if i1.size == 0 or i2.size == 0:
        raise EmptyBlock(f"block pair ({h1}, {h2}) has an empty group")
    pairs = [(a, b) for a in i1 for b in i2 if not (h1 == h2 and a == b)]
    if not pairs:
        raise EmptyBlock(f"block pair ({h1}, {h2}) yields no index pairs")
    return IndexSet(np.asarray(pairs, dtype=np.int64))


class SymMatrix:
    """Exactly symmetric dense matrix; entries are mirrored from the lower
    triangle at construction so symmetry is structural."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise InvalidDimension("SymMatrix needs a square array")
        lower = np.tril(values)
        self.values = lower + np.tril(values, -1).T
        self.values.setflags(write=False)

    def __getitem__(self, key):
        return self.values[key]

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.values)


# O'Neill's seed_seq_fe, as numpy.random.SeedSequence implements it: the
# hash constants, a pool of 4 uint32 words, and the 4 uint64 state words a
# PCG64 asks for
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_STATE_WORDS = 4
# values of a key's last element whose seeds are hashed at once; a power of
# two, so that no block straddles a 2**32k, where a key's word count changes
SEED_BLOCK = 256


def _non_negative(value, what: str) -> int:
    """``value`` as an int (operator.index), or InvalidInput."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInput(f"{what} must be an integer, got {value!r}") \
            from None
    if value < 0:
        raise InvalidInput(f"{what} must be >= 0, got {value}")
    return value


def _words(value: int) -> list:
    """The 32-bit words of ``value``, least significant first, as
    SeedSequence splits an int: [0] for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash(value, const: int, mult: int):
    """One seed_seq_fe hash of ``value`` (an int or a uint32 array) under the
    hash constant ``const``; returns the hash and the next constant."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """seed_seq_fe's mix of pool word ``x`` with hash ``y``."""
    result = (_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32) & _MASK32
    return result ^ result >> 16


def _block_state(seed: int, lead: tuple, block: int) -> np.ndarray:
    """Row i is SeedSequence(entropy=seed, spawn_key=(*lead, block *
    SEED_BLOCK + i)).generate_state(4, np.uint64), for i < SEED_BLOCK, as a
    read-only (SEED_BLOCK, 4) array.

    SeedSequence zero-pads the seed's words to the pool size (it has a spawn
    key), appends the words of each key element, and mixes them into the
    pool word by word. Every word but the last element's is the same for
    the whole block, so the pool is mixed once from ints; the last
    element's words, of which only the lowest varies, and the output hash
    run on uint32 arrays of SEED_BLOCK values."""
    seed_words = _words(seed)
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    last = _words(block * SEED_BLOCK)
    # no carry: SEED_BLOCK divides 2**32
    last[0] = last[0] + np.arange(SEED_BLOCK, dtype=np.uint32)
    entropy = seed_words + [w for k in lead for w in _words(k)] + last
    const, pool = _INIT_A, []
    for word in entropy[:_POOL_SIZE]:
        h, const = _hash(word, const, _MULT_A)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    const, out = _INIT_B, []
    for i in range(2 * _STATE_WORDS):
        h, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
        out.append(h)
    lo = np.array(out[0::2], dtype=np.uint64)
    hi = np.array(out[1::2], dtype=np.uint64)
    state = np.ascontiguousarray((lo | hi << 32).T)
    state.setflags(write=False)
    return state


@cache
def _seeded_type() -> type:
    """The seed sequence that hands PCG64 state words computed here, so the
    bit generator seeds itself as from the SeedSequence they come from
    (numpy.random is imported at the first draw, not with the package)."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for (4, np.uint64) and nothing else
            return self.words

    return Seeded


@dataclass(frozen=True)
class RngSpec:
    """Reproducible RNG root: identical (seed, stream) gives identical draws
    for any key, independent of thread count.

    The substream ``key`` is NumPy's PCG64 seeded from
    SeedSequence(entropy=seed, spawn_key=(s, *key)), with s the 32-bit
    blake2b digest of ``stream``; keys and seed are non-negative integers.
    The seeds of SEED_BLOCK consecutive values of a key's last element are
    hashed at once, and a spec keeps the last block it hashed, so a run of
    draws m = 0, 1, ... hashes once per block instead of once per draw."""

    seed: int
    stream: str = ""

    def __post_init__(self):
        _non_negative(self.seed, "seed")

    @cached_property
    def _stream_key(self) -> int:
        digest = hashlib.blake2b(self.stream.encode(), digest_size=4).digest()
        return int.from_bytes(digest, "little")

    def _state(self, key) -> np.ndarray:
        """SeedSequence(entropy=seed, spawn_key=(stream key, *key))
        .generate_state(4, np.uint64), read from the memo of one block."""
        spawn_key = (self._stream_key,
                     *[_non_negative(k, "key") for k in key])
        lead = spawn_key[:-1]
        block, pos = divmod(spawn_key[-1], SEED_BLOCK)
        # one tuple, replaced whole, so threads sharing a spec read a
        # consistent memo
        memo = self.__dict__.get("_memo")
        if memo is None or memo[0] != lead or memo[1] != block:
            memo = (lead, block, _block_state(operator.index(self.seed),
                                              lead, block))
            object.__setattr__(self, "_memo", memo)
        return memo[2][pos]

    def generator(self, *key: int) -> np.random.Generator:
        """A generator for the substream identified by ``key``. Its
        ``bit_generator.seed_seq`` holds the state words alone, so it
        cannot ``spawn``; derive nested streams with ``child``."""
        return np.random.Generator(
            np.random.PCG64(_seeded_type()(self._state(key))))

    def child(self, *key: int) -> "RngSpec":
        """Derive an independent child spec (for nested substreams): its
        seed is the first state word of substream ``key``, which is
        SeedSequence(...).generate_state(1, np.uint64)[0]."""
        new_seed = int(self._state(key)[0])
        label = self.stream + "/" + "-".join(str(k) for k in key)
        return RngSpec(seed=new_seed, stream=label)


def map_ordered(fn, items, threads: int) -> list:
    """[fn(item) for item in items], on a pool of ``threads`` threads when
    threads > 1; the results keep the order of ``items``."""
    if threads <= 1:
        return [fn(item) for item in items]
    # imported only here: the pool's modules (logging and queue among
    # them) take about 0.6 MB that a one-thread run need not hold
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
