"""The backend contract and the shared scalar index helpers.

A backend is a strategy object for bitset *operations*; bitset *values*
crossing the API are always plain Python ``int``s (the package-wide
representation of :mod:`repro.core.bitset`), which is what makes every
backend bit-identical by construction — only the execution of the batch
folds differs.

The scalar index helpers (``bit``/``from_indices``/``mask_below``/
``mask_upto``...) are implemented once on this base class, on top of the
validated functions in :mod:`repro.core.bitset`.  Subclasses are free to
override the *batch* operations but inherit the scalar ones, so the edge
semantics (negative index -> ``ValueError``) cannot drift between
backends; ``tests/test_backends.py`` drives every operation through
every backend to enforce exactly that.
"""

from __future__ import annotations

from bisect import insort
from collections import namedtuple
from typing import Iterable, Iterator, Optional, Sequence

from .. import bitset as _bitset

__all__ = ["BitsetBackend", "NodeKernel", "ThresholdStore"]

#: The per-walk bound kernel the enumeration engines drive: three
#: callables closed over one support handle and one encoded mask, so a
#: backend can cache buffers/tables/scratch arrays across the nodes of a
#: single walk instead of re-materializing them per call.  One kernel is
#: created per enumeration run (never shared between threads), which is
#: what makes backend-private scratch state safe.
NodeKernel = namedtuple(
    "NodeKernel",
    ["intersect_union_counts", "intersect_counts", "masked_counts"],
)


class ThresholdStore:
    """Per-position (confidence, support) thresholds with a min-fold.

    The top-k policy maintains one threshold pair per consequent-class
    row (the k-th list entry of Equations 1-2) and, at every pruning
    check, needs the lexicographic minimum of those pairs over the rows
    of a ``threshold_bits`` bitset — once per surviving node, which
    makes it the dominant per-node cost on tall datasets.

    The rows hold few distinct pairs at any one time (lists fill with
    the same strong groups), so the store buckets positions by pair: a
    dict from each distinct ``(kth_conf, kth_sup)`` to the bitset of
    positions holding it, plus the distinct pairs in ascending order.
    ``update`` moves one bit between buckets; ``fold`` returns the first
    pair whose bucket meets ``bits``, which is the same lexicographic
    minimum a per-bit scan finds, in one ``&`` per distinct pair instead
    of one Python iteration per set bit.  Positions start at
    ``(0.0, 0)`` — the threshold of an underfull top-k list.
    """

    __slots__ = ("_pairs", "_buckets", "_order")

    def __init__(self, n_positive: int) -> None:
        initial = (0.0, 0)
        self._pairs: list[tuple[float, int]] = [initial] * n_positive
        self._buckets: dict[tuple[float, int], int] = {}
        self._order: list[tuple[float, int]] = []
        if n_positive:
            self._buckets[initial] = _bitset.mask_below(n_positive)
            self._order.append(initial)

    def update(self, position: int, conf: float, sup: int) -> None:
        pair = (conf, sup)
        old = self._pairs[position]
        if pair == old:
            return
        self._pairs[position] = pair
        buckets = self._buckets
        bit = 1 << position
        remaining = buckets[old] ^ bit
        if remaining:
            buckets[old] = remaining
        else:
            del buckets[old]
            self._order.remove(old)
        bucket = buckets.get(pair)
        if bucket is None:
            buckets[pair] = bit
            insort(self._order, pair)
        else:
            buckets[pair] = bucket | bit

    def fold(self, bits: int) -> tuple[float, int]:
        """Lexicographic min of ``(conf, sup)`` over the set positions.

        ``bits`` must be non-empty; the caller treats an empty row set
        as unconditionally prunable before consulting thresholds (an
        empty fold returns the ``(inf, 0)`` identity).
        """
        buckets = self._buckets
        for pair in self._order:
            if buckets[pair] & bits:
                return pair
        return float("inf"), 0

    def weakest(self) -> Optional[tuple[float, int]]:
        """The minimum pair over every position (``None`` when empty)."""
        return self._order[0] if self._order else None


class BitsetBackend:
    """Base class: shared scalar ops + the batch-operation contract.

    Batch contract (``ids`` are indices into the encoded support
    table; results are plain ``int`` bitsets):

    * ``encode_supports(bitsets, n_bits)`` -> opaque handle; ``n_bits``
      is the universe size (row count) every bitset fits in.
    * ``intersect_many(handle, ids)`` == fold of ``&`` over the
      selected supports; ``ids`` must be non-empty (an ``&``-fold has
      no identity element bounded by the handle alone).
    * ``union_many(handle, ids)`` == fold of ``|``; empty ``ids`` -> 0.
    * ``intersect_union_many(handle, ids)`` == both folds in one call —
      the per-node shape of the bitset enumeration kernel.
    * ``popcount_many(bitsets)`` == ``[popcount(b) for b in bitsets]``
      over plain ints (no handle: the kernels count freshly derived
      masks, not table rows).
    """

    #: Registry name; subclasses set it.
    name: str = "base"

    # -- scalar index helpers (shared, validated) -------------------------

    @staticmethod
    def bit(index: int) -> int:
        return _bitset.bit(index)

    @staticmethod
    def from_indices(indices: Iterable[int]) -> int:
        return _bitset.from_indices(indices)

    @staticmethod
    def to_indices(bits: int) -> list[int]:
        return _bitset.to_indices(bits)

    @staticmethod
    def iter_indices(bits: int) -> Iterator[int]:
        return _bitset.iter_indices(bits)

    @staticmethod
    def is_subset(smaller: int, larger: int) -> bool:
        return _bitset.is_subset(smaller, larger)

    @staticmethod
    def contains(bits: int, index: int) -> bool:
        return _bitset.contains(bits, index)

    @staticmethod
    def lowest_bit_index(bits: int) -> int:
        return _bitset.lowest_bit_index(bits)

    @staticmethod
    def mask_below(index: int) -> int:
        return _bitset.mask_below(index)

    @staticmethod
    def mask_upto(index: int) -> int:
        return _bitset.mask_upto(index)

    def popcount(self, bits: int) -> int:
        return bits.bit_count()

    # -- batch operations (subclasses override) ---------------------------

    def encode_supports(self, bitsets: Sequence[int], n_bits: int):
        """Encode a support table for the batch folds.  Subclasses may
        return any handle their batch methods understand; the default is
        a plain tuple of the ints."""
        return tuple(bitsets)

    def intersect_many(self, handle, ids: Sequence[int]) -> int:
        raise NotImplementedError

    def union_many(self, handle, ids: Sequence[int]) -> int:
        raise NotImplementedError

    def intersect_union_many(self, handle, ids: Sequence[int]) -> tuple[int, int]:
        raise NotImplementedError

    def popcount_many(self, bitsets: Sequence[int]) -> list[int]:
        raise NotImplementedError

    # -- fused counting folds (the tall-dataset hot path) ------------------
    #
    # The enumeration kernels need, at every node, the closure/union fold
    # *and* the positive/total popcounts of the closure.  Computing them
    # as separate batch calls materializes intermediate bitsets
    # (``closure & positive_mask``) and, for array-encoded backends,
    # round-trips every derived mask through int<->array conversion.  The
    # fused methods below fold the mask popcount into the reduce itself;
    # the defaults compose the primitive batch methods, so a third-party
    # backend that only implements the primitives stays correct (and
    # bit-identical) automatically.

    def encode_mask(self, bits: int, n_bits: int):
        """Encode one long-lived mask (e.g. the positive-class mask of a
        view) for the counting folds below.  The default representation
        is the plain ``int`` itself; a backend overriding this must also
        override every method that receives an encoded mask."""
        return bits

    def intersect_union_counts(
        self, handle, ids: Sequence[int], mask
    ) -> tuple[int, int, int, int]:
        """``(inter, union, popcount(inter & mask), popcount(inter))``
        with both folds and both counts in one pass."""
        inter, union = self.intersect_union_many(handle, ids)
        return inter, union, (inter & mask).bit_count(), inter.bit_count()

    def intersect_counts(
        self, handle, ids: Sequence[int], mask
    ) -> tuple[int, int, int]:
        """``(inter, popcount(inter & mask), popcount(inter))``."""
        inter = self.intersect_many(handle, ids)
        return inter, (inter & mask).bit_count(), inter.bit_count()

    def masked_counts(self, bits: int, mask) -> tuple[int, int]:
        """``(popcount(bits & mask), popcount(bits))`` for one fresh
        bitset (the candidate set a node derives in int space)."""
        return (bits & mask).bit_count(), bits.bit_count()

    def node_kernel(self, handle, mask) -> NodeKernel:
        """Bind the fused folds for one enumeration walk.

        Subclasses override to close over pre-resolved state (unpacked
        handles, popcount tables, preallocated scratch buffers) so the
        per-node calls do no setup work.  Kernels are walk-private:
        callers create one per run and never share it across threads.
        """
        return NodeKernel(
            lambda ids: self.intersect_union_counts(handle, ids, mask),
            lambda ids: self.intersect_counts(handle, ids, mask),
            lambda bits: self.masked_counts(bits, mask),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
