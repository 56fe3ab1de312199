import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from precboot import (Dataset, IndexSet, RngSpec, SymMatrix, center,
                      index_set_all_offdiag, index_set_from_blocks)
from precboot.core import SEED_BLOCK, index_set_from_mask
from precboot.errors import EmptyBlock, InsufficientData, InvalidDimension, \
    InvalidInput


class TestDataset:
    def test_shape_properties(self):
        d = Dataset(np.zeros((5, 3)))
        assert (d.n, d.p) == (5, 3)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientData):
            Dataset(np.zeros((3, 3)))

    def test_too_few_columns(self):
        with pytest.raises(InvalidDimension):
            Dataset(np.zeros((10, 1)))

    def test_not_2d(self):
        with pytest.raises(InvalidDimension):
            Dataset(np.zeros(10))

    def test_centered_flag_is_checked(self):
        with pytest.raises(InvalidDimension):
            Dataset(np.ones((5, 2)), centered=True)


class TestCenter:
    def test_column_means_zero(self, rng):
        d = center(Dataset(rng.standard_normal((50, 4)) + 3.0))
        assert np.abs(d.values.mean(axis=0)).max() < 1e-12
        assert d.centered

    def test_idempotent(self, rng):
        d = center(Dataset(rng.standard_normal((20, 3))))
        assert center(d) is d


class TestIndexSet:
    def test_order_and_positions(self):
        s = IndexSet(np.array([[1, 3], [2, 1], [4, 4]]))
        assert s.r == 3
        assert list(s.rows()) == [0, 1, 3]
        assert list(s.cols()) == [2, 0, 3]

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidDimension):
            IndexSet(np.array([[1, 2], [1, 2]]))
        with pytest.raises(InvalidDimension):  # not adjacent
            IndexSet(np.array([[3, 1], [1, 2], [2, 2], [3, 1]]))
        IndexSet(np.array([[2, 1], [1, 2]]))  # a swapped pair is distinct

    def test_rejects_zero_index(self):
        with pytest.raises(InvalidDimension):
            IndexSet(np.array([[0, 1]]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidDimension):
            IndexSet(np.zeros((0, 2), dtype=np.int64))


class TestOffdiagSet:
    def test_count_and_order(self):
        s = index_set_all_offdiag(3)
        assert s.r == 6
        assert s.pairs[:3].tolist() == [[1, 2], [1, 3], [2, 1]]

    def test_small_p_rejected(self):
        with pytest.raises(InvalidDimension):
            index_set_all_offdiag(1)


class TestMaskSet:
    def test_row_major_pairs_of_true_entries(self, rng):
        for p in (2, 3, 7):
            mask = rng.random((p, p)) < 0.5
            mask[0, -1] = True
            S = index_set_from_mask(mask)
            assert S.pairs.tolist() == [[j1 + 1, j2 + 1] for j1 in range(p)
                                        for j2 in range(p) if mask[j1, j2]]


class TestBlockSet:
    def test_cross_pairs_row_major(self):
        groups = {"a": [1, 2], "b": [4]}
        s = index_set_from_blocks(groups, ("a", "b"))
        assert s.pairs.tolist() == [[1, 4], [2, 4]]

    def test_within_block_drops_diagonal(self):
        s = index_set_from_blocks({"a": [2, 5]}, ("a", "a"))
        assert s.pairs.tolist() == [[2, 5], [5, 2]]

    def test_empty_group(self):
        with pytest.raises(EmptyBlock):
            index_set_from_blocks({"a": [], "b": [1]}, ("a", "b"))

    def test_singleton_within(self):
        with pytest.raises(EmptyBlock):
            index_set_from_blocks({"a": [3]}, ("a", "a"))


class TestSymMatrix:
    def test_mirrors_lower_triangle(self):
        m = SymMatrix(np.array([[1.0, 99.0], [2.0, 3.0]]))
        assert m[0, 1] == 2.0 and m[1, 0] == 2.0

    def test_exact_symmetry(self, rng):
        m = SymMatrix(rng.standard_normal((7, 7)))
        assert np.array_equal(m.values, m.values.T)

    def test_read_only(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.values[0, 0] = 5.0

    def test_diagonal(self):
        m = SymMatrix(np.diag([1.0, 2.0]))
        assert m.diagonal().tolist() == [1.0, 2.0]

    def test_rejects_non_square(self):
        with pytest.raises(InvalidDimension):
            SymMatrix(np.zeros((2, 3)))


class TestRngSpec:
    def test_same_key_same_draws(self):
        a = RngSpec(7, "x").generator(1, 2).standard_normal(5)
        b = RngSpec(7, "x").generator(1, 2).standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_stream_different_draws(self):
        a = RngSpec(7, "x").generator(0).standard_normal(5)
        b = RngSpec(7, "y").generator(0).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_different_key_different_draws(self):
        spec = RngSpec(7)
        a = spec.generator(0).standard_normal(5)
        b = spec.generator(1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_child_is_deterministic(self):
        a = RngSpec(7, "x").child(3).generator(1).standard_normal(4)
        b = RngSpec(7, "x").child(3).generator(1).standard_normal(4)
        assert np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInput, match="seed must be >= 0, got -1"):
            RngSpec(-1, "x")
        assert RngSpec(0).seed == 0

    def test_child_differs_from_parent(self):
        spec = RngSpec(7, "x")
        a = spec.generator(3, 1).standard_normal(4)
        b = spec.child(3).generator(1).standard_normal(4)
        assert not np.array_equal(a, b)


def numpy_seed_sequence(seed, stream, key):
    """NumPy's own SeedSequence for substream ``key`` of RngSpec(seed,
    stream): the stream is the 32-bit little-endian blake2b digest of its
    name, spawned ahead of the key."""
    digest = hashlib.blake2b(stream.encode(), digest_size=4).digest()
    return np.random.SeedSequence(
        seed, spawn_key=(int.from_bytes(digest, "little"), *key))


# seeds of 1, 2 and 5 32-bit words (a child's seed is 64-bit)
SEEDS = [0, 7, 2 ** 32, 2 ** 64 - 1, 2 ** 130 + 5]
# last elements at and next to the edges of a block and of a 32-bit word,
# leading elements of 2**32 and more, and keys of 1 to 3 elements
KEYS = [(0,), (1,), (255,), (256,), (2 ** 32 - 1,), (2 ** 32,),
        (2 ** 64 + 3,), (3, 0), (2 ** 32, 257), (2 ** 70, 1, 2 ** 33),
        (4, 5, 6), ()]


class TestRngSpecMatchesSeedSequence:
    # the block hash must give NumPy's own seeds bit for bit: a fixed-seed
    # output depends on every state word
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stream", ["", "boot"])
    def test_generator_state_is_numpy_state(self, seed, stream):
        spec = RngSpec(seed, stream)
        for key in KEYS:
            got = spec.generator(*key)
            want = np.random.default_rng(
                numpy_seed_sequence(seed, stream, key))
            assert got.bit_generator.state == want.bit_generator.state, key
            assert np.array_equal(got.standard_normal(7),
                                  want.standard_normal(7))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_child_seed_is_first_state_word(self, seed):
        spec = RngSpec(seed, "x")
        for key in KEYS:
            want = int(numpy_seed_sequence(seed, "x", key)
                       .generate_state(1, np.uint64)[0])
            child = spec.child(*key)
            assert child.seed == want, key
            assert child.stream == "x/" + "-".join(map(str, key))

    def test_interleaved_specs_and_prefixes(self):
        # each call may replace the one block a spec keeps
        a, b = RngSpec(7, "x"), RngSpec(2 ** 40, "y")
        calls = []
        for m in (0, 300, 1, 299, 255, 256, 2, 511, 512, 3):
            calls += [(a, (m,)), (b, (m,)), (a, (5, m)), (b, (2 ** 32, m)),
                      (a, (m,))]
        for spec, key in calls:
            got = spec.generator(*key).bit_generator.state
            want = np.random.PCG64(
                numpy_seed_sequence(spec.seed, spec.stream, key)).state
            assert got == want, (spec, key)

    def test_threads_sharing_a_spec(self):
        # threads replace the one kept block under each other; each call
        # must still read the block of its own key
        spec = RngSpec(11, "boot")
        keys = [(t, m) for m in range(0, 2048, 97) for t in range(6)]
        want = [np.random.PCG64(numpy_seed_sequence(11, "boot", key)).state
                for key in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                got = list(pool.map(
                    lambda key: spec.generator(*key).bit_generator.state,
                    keys, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_numpy_integer_keys(self):
        spec = RngSpec(np.int64(7), "x")
        assert spec.generator(np.int64(300)).bit_generator.state \
            == RngSpec(7, "x").generator(300).bit_generator.state
        assert spec.child(np.uint32(2)) == RngSpec(7, "x").child(2)

    def test_seed_block_is_a_power_of_two(self):
        # then no block straddles 2**32, where a key's word count changes
        assert SEED_BLOCK > 0 and SEED_BLOCK & (SEED_BLOCK - 1) == 0

    @pytest.mark.parametrize("key", [(-1,), (1.5,), (2.0,), ("3",), (None,),
                                     (0, -2), (2.0, 1)])
    def test_bad_keys_raise_invalid_input(self, key):
        spec = RngSpec(7, "x")
        with pytest.raises(InvalidInput, match="key must be"):
            spec.generator(*key)
        with pytest.raises(InvalidInput, match="key must be"):
            spec.child(*key)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(InvalidInput, match="seed must be an integer"):
            RngSpec(1.5, "x")
