"""Shared numeric data model: datasets, index sets, symmetric matrices, RNG.

Conventions used everywhere in the package:
  * rows are time points, columns are variables;
  * column/node indices in the public API are 1-based (internally 0-based);
  * all floating point is float64.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

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
    ``values`` itself, and return it as a centred Dataset (no copy)."""
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


@dataclass(frozen=True)
class RngSpec:
    """Reproducible RNG root: identical (seed, stream) gives identical draws
    for any key, independent of thread count."""

    seed: int
    stream: str = ""

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")

    @cached_property
    def _stream_key(self) -> int:
        digest = hashlib.blake2b(self.stream.encode(), digest_size=4).digest()
        return int.from_bytes(digest, "little")

    def generator(self, *key: int) -> np.random.Generator:
        """A generator for the substream identified by ``key``."""
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self._stream_key, *key)
        )
        return np.random.default_rng(ss)

    def child(self, *key: int) -> "RngSpec":
        """Derive an independent child spec (for nested substreams)."""
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self._stream_key, *key)
        )
        new_seed = int(ss.generate_state(1, np.uint64)[0])
        label = self.stream + "/" + "-".join(str(k) for k in key)
        return RngSpec(seed=new_seed, stream=label)


def map_ordered(fn, items, threads: int) -> list:
    """[fn(item) for item in items], on a pool of ``threads`` threads when
    threads > 1; the results keep the order of ``items``."""
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
