"""Optional numpy backend: support table as a ``uint64`` word matrix.

``encode_supports`` packs the table into one contiguous
``(n_supports, n_words)`` ``uint64`` array; ``intersect_many`` /
``union_many`` are single ``np.bitwise_and.reduce`` /
``np.bitwise_or.reduce`` calls over a row slice, and popcounts go
through ``np.bitwise_count``.  Results cross back to plain ``int``
bitsets at the call boundary, so outputs are bit-identical to the
default backend by construction.

The fused counting folds compute the positive-mask popcount from the
reduce output words directly (one ``bitwise_count`` pass, no
intermediate int bitsets), and :meth:`NumpyBackend.node_kernel`
preallocates the reduce output buffers once per walk so the per-node
calls do no setup work.  Even so, ``int`` beats this backend at every
committed size (DESIGN.md §12); it stays as a measured alternative.

This module is import-guarded by the package ``__init__``: importing it
raises ``ImportError`` when numpy is absent and the backend simply does
not register — nothing else in the package imports numpy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import BitsetBackend, NodeKernel

__all__ = ["NumpyBackend"]

if not hasattr(np, "bitwise_count"):  # numpy < 2.0
    raise ImportError("numpy backend needs numpy >= 2.0 (np.bitwise_count)")


def _to_int(words: "np.ndarray") -> int:
    return int.from_bytes(words.tobytes(), "little")


class NumpyBackend(BitsetBackend):
    name = "numpy"

    def encode_supports(self, bitsets: Sequence[int], n_bits: int):
        n_words = max(1, (n_bits + 63) // 64)
        buffer = bytearray()
        for bits in bitsets:
            buffer += bits.to_bytes(n_words * 8, "little")
        matrix = np.frombuffer(bytes(buffer), dtype="<u8")
        return matrix.reshape(len(bitsets), n_words), n_words

    def encode_mask(self, bits: int, n_bits: int) -> "np.ndarray":
        n_words = max(1, (n_bits + 63) // 64)
        return np.frombuffer(bits.to_bytes(n_words * 8, "little"), dtype="<u8")

    def intersect_many(self, handle, ids: Sequence[int]) -> int:
        if not len(ids):
            raise ValueError("intersect_many needs at least one id")
        matrix, _n_words = handle
        return _to_int(np.bitwise_and.reduce(matrix[list(ids)], axis=0))

    def union_many(self, handle, ids: Sequence[int]) -> int:
        matrix, n_words = handle
        if not len(ids):
            return 0
        return _to_int(np.bitwise_or.reduce(matrix[list(ids)], axis=0))

    def intersect_union_many(self, handle, ids: Sequence[int]) -> tuple[int, int]:
        if not len(ids):
            raise ValueError("intersect_union_many needs at least one id")
        matrix, _n_words = handle
        selected = matrix[list(ids)]
        return (
            _to_int(np.bitwise_and.reduce(selected, axis=0)),
            _to_int(np.bitwise_or.reduce(selected, axis=0)),
        )

    def popcount_many(self, bitsets: Sequence[int]) -> list[int]:
        if not bitsets:
            return []
        n_bits = max(bits.bit_length() for bits in bitsets)
        n_words = max(1, (n_bits + 63) // 64)
        buffer = bytearray()
        for bits in bitsets:
            buffer += bits.to_bytes(n_words * 8, "little")
        matrix = np.frombuffer(bytes(buffer), dtype="<u8").reshape(
            len(bitsets), n_words
        )
        counts = np.bitwise_count(matrix).sum(axis=1)
        return [int(count) for count in counts]

    def intersect_union_counts(
        self, handle, ids: Sequence[int], mask: "np.ndarray"
    ) -> tuple[int, int, int, int]:
        if not len(ids):
            raise ValueError("intersect_union_counts needs at least one id")
        matrix, _n_words = handle
        selected = matrix[list(ids)]
        inter = np.bitwise_and.reduce(selected, axis=0)
        union = np.bitwise_or.reduce(selected, axis=0)
        x_p = int(np.bitwise_count(inter & mask).sum())
        x_all = int(np.bitwise_count(inter).sum())
        return _to_int(inter), _to_int(union), x_p, x_all

    def intersect_counts(
        self, handle, ids: Sequence[int], mask: "np.ndarray"
    ) -> tuple[int, int, int]:
        if not len(ids):
            raise ValueError("intersect_counts needs at least one id")
        matrix, _n_words = handle
        inter = np.bitwise_and.reduce(matrix[list(ids)], axis=0)
        x_p = int(np.bitwise_count(inter & mask).sum())
        x_all = int(np.bitwise_count(inter).sum())
        return _to_int(inter), x_p, x_all

    def masked_counts(self, bits: int, mask: "np.ndarray") -> tuple[int, int]:
        words = np.frombuffer(
            bits.to_bytes(len(mask) * 8, "little"), dtype="<u8"
        )
        return (
            int(np.bitwise_count(words & mask).sum()),
            int(np.bitwise_count(words).sum()),
        )

    def node_kernel(self, handle, mask: "np.ndarray") -> NodeKernel:
        matrix, n_words = handle
        # Walk-private reduce outputs, reused across nodes; kernels are
        # never shared between threads.  The reduces are where numpy
        # earns its keep (one C pass folds the whole item selection);
        # the popcounts go through the ``int`` results that the walk
        # needs anyway — ``int.bit_count`` beats a ``bitwise_count`` +
        # reduction round-trip (two more ufunc dispatches plus a temp
        # array) at every cohort size this package mines.
        inter = np.empty(n_words, dtype="<u8")
        union = np.empty(n_words, dtype="<u8")
        and_reduce = np.bitwise_and.reduce
        or_reduce = np.bitwise_or.reduce
        from_bytes = int.from_bytes
        mask_int = from_bytes(mask.tobytes(), "little")

        def intersect_union_counts(ids):
            selected = matrix[ids]
            and_reduce(selected, axis=0, out=inter)
            or_reduce(selected, axis=0, out=union)
            closure = from_bytes(inter.tobytes(), "little")
            return (
                closure,
                from_bytes(union.tobytes(), "little"),
                (closure & mask_int).bit_count(),
                closure.bit_count(),
            )

        def intersect_counts(ids):
            and_reduce(matrix[ids], axis=0, out=inter)
            closure = from_bytes(inter.tobytes(), "little")
            return (
                closure,
                (closure & mask_int).bit_count(),
                closure.bit_count(),
            )

        def masked_counts(bits):
            return (bits & mask_int).bit_count(), bits.bit_count()

        return NodeKernel(intersect_union_counts, intersect_counts, masked_counts)
