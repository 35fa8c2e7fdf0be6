"""Integer-backed bitsets over row and item identifiers.

All miners in this package manipulate *sets of row ids* and *sets of item
ids* very heavily: closure computation is an intersection of row sets, the
backward-pruning check is a subset test, and support counting is a
population count.  Arbitrary-precision Python integers give us all of these
operations in C speed with no external dependencies, so the whole package
standardises on plain ``int`` bitsets and uses the helpers below to convert
between bitsets and explicit index collections.

The empty set is ``0``.  Bit ``i`` set means element ``i`` is present.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "bit",
    "from_indices",
    "to_indices",
    "iter_indices",
    "popcount",
    "is_subset",
    "contains",
    "lowest_bit_index",
    "mask_below",
    "mask_upto",
]


def bit(index: int) -> int:
    """Return a bitset containing only ``index``.

    Raises:
        ValueError: if ``index`` is negative.
    """
    if index < 0:
        raise ValueError(f"bitset indices are non-negative, got {index}")
    return 1 << index


def from_indices(indices: Iterable[int]) -> int:
    """Build a bitset from an iterable of non-negative indices.

    Raises:
        ValueError: if any index is negative.
    """
    bits = 0
    for index in indices:
        if index < 0:
            raise ValueError(f"bitset indices are non-negative, got {index}")
        bits |= 1 << index
    return bits


def to_indices(bits: int) -> list[int]:
    """Return the sorted list of indices present in ``bits``."""
    return list(iter_indices(bits))


def iter_indices(bits: int) -> Iterator[int]:
    """Yield the indices present in ``bits`` in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def popcount(bits: int) -> int:
    """Return the number of elements in the bitset."""
    return bits.bit_count()


def is_subset(smaller: int, larger: int) -> bool:
    """Return True iff every element of ``smaller`` is in ``larger``."""
    return smaller & ~larger == 0


def contains(bits: int, index: int) -> bool:
    """Return True iff ``index`` is present in ``bits``."""
    return bits >> index & 1 == 1


def lowest_bit_index(bits: int) -> int:
    """Return the smallest index in a non-empty bitset.

    Raises:
        ValueError: if ``bits`` is empty.
    """
    if not bits:
        raise ValueError("empty bitset has no lowest bit")
    return (bits & -bits).bit_length() - 1


def mask_below(index: int) -> int:
    """Return a bitset of all indices strictly below ``index``.

    ``mask_below(0)`` is the empty mask.

    Raises:
        ValueError: if ``index`` is negative.
    """
    if index < 0:
        raise ValueError(f"mask_below needs a non-negative index, got {index}")
    return (1 << index) - 1


def mask_upto(index: int) -> int:
    """Return a bitset of all indices at or below ``index``.

    Raises:
        ValueError: if ``index`` is negative (there is no non-empty prefix
        ending below index 0; use ``mask_below(0)`` for the empty mask).
    """
    if index < 0:
        raise ValueError(f"mask_upto needs a non-negative index, got {index}")
    return (1 << (index + 1)) - 1
