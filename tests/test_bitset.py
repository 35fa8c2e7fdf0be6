"""Unit and property tests for the integer bitset helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import bitset as B


class TestBasics:
    def test_bit(self):
        assert B.bit(0) == 1
        assert B.bit(5) == 32

    def test_from_indices_empty(self):
        assert B.from_indices([]) == 0

    def test_from_indices_duplicates_collapse(self):
        assert B.from_indices([2, 2, 2]) == 4

    def test_to_indices_sorted(self):
        assert B.to_indices(B.from_indices([5, 1, 3])) == [1, 3, 5]

    def test_iter_indices_ascending(self):
        assert list(B.iter_indices(0b101010)) == [1, 3, 5]

    def test_popcount(self):
        assert B.popcount(0) == 0
        assert B.popcount(0b1011) == 3

    def test_contains(self):
        bits = B.from_indices([0, 7])
        assert B.contains(bits, 0)
        assert B.contains(bits, 7)
        assert not B.contains(bits, 3)

    def test_is_subset(self):
        assert B.is_subset(0b0101, 0b1101)
        assert not B.is_subset(0b0111, 0b1101)
        assert B.is_subset(0, 0)

    def test_lowest_bit_index(self):
        assert B.lowest_bit_index(0b1000) == 3
        assert B.lowest_bit_index(0b1001) == 0

    def test_lowest_bit_index_empty_raises(self):
        with pytest.raises(ValueError):
            B.lowest_bit_index(0)

    def test_mask_below(self):
        assert B.mask_below(0) == 0
        assert B.mask_below(3) == 0b111

    def test_mask_upto(self):
        assert B.mask_upto(0) == 1
        assert B.mask_upto(2) == 0b111


class TestLargeSets:
    """Sets of more than 32 elements take a linear path; the bit-by-bit
    walk of ``iter_indices`` is its reference."""

    @pytest.mark.parametrize("density", (0.05, 0.5, 0.95))
    def test_to_indices_matches_the_bit_walk(self, density):
        import random

        rng = random.Random(7)
        for n_bits in (33, 64, 257, 4096):
            for _ in range(20):
                bits = sum(1 << i for i in range(n_bits)
                           if rng.random() < density)
                assert B.to_indices(bits) == list(B.iter_indices(bits))

    def test_bit_flags(self):
        assert B.bit_flags(0b1011) == bytes([1, 1, 0, 1])
        assert B.bit_flags(1 << 40) == bytes(40) + b"\x01"


class TestNegativeIndices:
    """Negative indices raise a clear ValueError instead of silently
    producing an empty or nonsensical mask (``bit(-1)`` used to raise a
    confusing shift error, ``mask_upto(-1)`` silently returned 0)."""

    def test_bit_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative, got -1"):
            B.bit(-1)

    def test_from_indices_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative, got -3"):
            B.from_indices([0, 5, -3])

    def test_mask_below_rejects_negative(self):
        with pytest.raises(ValueError, match="mask_below.*got -1"):
            B.mask_below(-1)

    def test_mask_upto_rejects_negative(self):
        """mask_upto(-1) must not silently alias mask_below(0)."""
        with pytest.raises(ValueError, match="mask_upto.*got -1"):
            B.mask_upto(-1)

    def test_empty_mask_spelling(self):
        """The empty prefix mask is mask_below(0), and it still works."""
        assert B.mask_below(0) == 0


indices = st.sets(st.integers(min_value=0, max_value=200), max_size=40)


class TestProperties:
    @given(indices)
    def test_roundtrip(self, values):
        assert set(B.to_indices(B.from_indices(values))) == values

    @given(indices)
    def test_popcount_matches_cardinality(self, values):
        assert B.popcount(B.from_indices(values)) == len(values)

    @given(indices, indices)
    def test_subset_matches_set_semantics(self, a, b):
        assert B.is_subset(B.from_indices(a), B.from_indices(b)) == (a <= b)

    @given(indices, indices)
    def test_and_is_intersection(self, a, b):
        bits = B.from_indices(a) & B.from_indices(b)
        assert set(B.to_indices(bits)) == (a & b)

    @given(indices, indices)
    def test_or_is_union(self, a, b):
        bits = B.from_indices(a) | B.from_indices(b)
        assert set(B.to_indices(bits)) == (a | b)

    @given(indices)
    def test_lowest_bit_is_minimum(self, values):
        bits = B.from_indices(values)
        if values:
            assert B.lowest_bit_index(bits) == min(values)
