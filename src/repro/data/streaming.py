"""Row-chunk sources: the streaming input contract of the hybrid miner.

The paper's Section 8 route to tall datasets is column-wise
partitioning; its precondition here is that nobody ever needs the whole
row set in memory at once.  This module defines the input side of that
contract: a :class:`RowChunkSource` hands out the catalog and the rows
in bounded chunks, and can do so repeatedly (the hybrid miner reads it
once to count, then once per partition to collect that partition's
rows).

Two implementations cover the repo's needs:

* :class:`TallChunkSource` streams a :class:`~.synthetic.TallCohortSpec`
  straight from ``iter_tall_chunks`` without materializing the cohort —
  the production path for ``tall-16k`` and above.
* :class:`DatasetChunkSource` adapts an already-materialized
  :class:`~.dataset.DiscretizedDataset`, so the in-memory and streaming
  entry points of the hybrid miner share one code path.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterator,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from .dataset import Item
from .synthetic import TALL_COHORTS, TallCohortSpec, iter_tall_chunks

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .dataset import DiscretizedDataset

__all__ = ["DatasetChunkSource", "RowChunkSource", "TallChunkSource"]


@runtime_checkable
class RowChunkSource(Protocol):
    """A replayable, chunked view of one discretized cohort.

    Attributes:
        items: dense item catalog (``items[i].item_id == i``).
        class_names: display names per class id; ``len(class_names)``
            bounds the valid consequents.
        name: cohort name for reports and partition labels.

    ``chunks()`` must be callable any number of times and yield the same
    rows in the same order each time — the hybrid miner reads the
    source once (a counting pass), then once per partition as that
    partition's job starts, and its determinism guarantee rests on
    replayability.  A source mined on the worker pool is pickled once
    per run, and each worker decodes it once.
    """

    items: Sequence[Item]
    class_names: Sequence[str]
    name: str

    def chunks(self) -> Iterator[tuple[list[frozenset[int]], list[int]]]:
        """Yield ``(rows, labels)`` chunks covering the cohort once."""
        ...


class TallChunkSource:
    """Stream a tall synthetic cohort without materializing it.

    Chunks come verbatim from :func:`iter_tall_chunks`, whose draws are
    keyed by ``(seed, chunk_index)`` — replaying the source re-deals the
    identical rows, and every committed :data:`TALL_COHORTS` spec yields
    both classes, so streaming and ``generate_tall_cohort`` agree row
    for row (the determinism tests pin this).
    """

    def __init__(
        self, spec: Union[TallCohortSpec, str], scale: float = 1.0
    ) -> None:
        if isinstance(spec, str):
            try:
                spec = TALL_COHORTS[spec]
            except KeyError:
                known = ", ".join(sorted(TALL_COHORTS))
                raise KeyError(
                    f"unknown tall cohort {spec!r}; expected one of: {known}"
                )
        if scale != 1.0:
            spec = spec.scaled(scale)
        self.spec = spec
        self.items = [
            Item(index, index, f"t{index:03d}", float("-inf"), float("inf"))
            for index in range(spec.n_items)
        ]
        self.class_names = ["control", "case"]
        self.name = spec.name

    def __reduce__(self):
        # Pool workers rebuild the catalog from the spec.
        return (TallChunkSource, (self.spec,))

    def chunks(self) -> Iterator[tuple[list[frozenset[int]], list[int]]]:
        return iter_tall_chunks(self.spec)


class DatasetChunkSource:
    """Adapt a materialized dataset to the chunk-source protocol."""

    def __init__(
        self, dataset: "DiscretizedDataset", chunk_rows: int = 1024
    ) -> None:
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.dataset = dataset
        self.chunk_rows = chunk_rows
        self.items = dataset.items
        self.class_names = list(dataset.class_names)
        self.name = dataset.name

    def chunks(self) -> Iterator[tuple[list[frozenset[int]], list[int]]]:
        dataset, step = self.dataset, self.chunk_rows
        for start in range(0, dataset.n_rows, step):
            yield (
                dataset.rows[start : start + step],
                dataset.labels[start : start + step],
            )
