"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each layer *where they are
called*: a function imported by name into another module is patched in
that module (``repro.core.topk_miner.run_enumeration``, not the
definition in ``enumeration``), and methods are patched on their class.
Every wrapped call is a span; a span's self time is its duration minus
the time covered by the spans nested directly inside it, so self times
of all spans never double count.  Spans are kept per thread (the
service runs mines on job threads beside its event loop) and merged
when the snapshot is taken.

Nothing here is imported by the untraced runs' timed code: tracing is
installed only in the separate traced run.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Optional

__all__ = ["Tracer", "install_layers", "merge_snapshots"]


class Tracer:
    """Per-thread span stacks plus per-name call/total/self aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[tuple[dict, dict]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _state(self) -> tuple[list, dict, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {}, {})
            with self._lock:
                self._tables.append((state[1], state[2]))
        return state

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter of the calling thread."""
        counters = self._state()[2]
        counters[name] = counters.get(name, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``on_result(tracer, args, result)`` runs after the span closes,
        so the counting it does is not charged to the span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, _ = tracer._state()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                row = spans.get(name)
                if row is None:
                    row = spans[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[0]
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a traced wrapper (undone by restore)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, on_result))
        else:
            replacement = self.wrap(name, raw, on_result)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def snapshot(self) -> dict:
        """``{"spans": {name: [calls, total_s, self_s]}, "counters": {...}}``."""
        with self._lock:
            tables = list(self._tables)
        return merge_snapshots(
            {"spans": spans, "counters": counters} for spans, counters in tables
        )


def merge_snapshots(snapshots) -> dict:
    """Sum several tracer snapshots (calls, times and counters)."""
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    for snap in snapshots:
        for name, (calls, total, own) in snap["spans"].items():
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


def _count_enumeration(tracer: Tracer, args, stats) -> None:
    tracer.count("enumeration.nodes", stats.nodes_visited)
    tracer.count(
        "enumeration.pruned",
        stats.loose_pruned + stats.tight_pruned + stats.backward_pruned,
    )
    tracer.count("enumeration.emitted", stats.groups_emitted)


def _count_offer(tracer: Tracer, args, accepted) -> None:
    if accepted:
        tracer.count("topk.offer_accepted")


def _count_lower_bounds(tracer: Tracer, args, result) -> None:
    tracer.count("lower_bounds.groups", len(args[1]))


def _count_predict(tracer: Tracer, args, result) -> None:
    tracer.count("rcbt.predict_rows", len(args[1]))


def install_layers(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are built from."""
    from repro.classifiers import rcbt
    from repro.core import backends, hybrid, prefix_tree, rules, topk_miner, view
    from repro.data import discretize
    from repro.service import server

    # data: discretization (generation is wrapped at the benchmark's own
    # call sites, since the benchmark is its only caller).
    tracer.patch(discretize.EntropyDiscretizer, "fit", "data.discretize")
    tracer.patch(discretize.EntropyDiscretizer, "transform", "data.discretize")
    # core.view: MiningView and SupportIndex construction.
    tracer.patch(view.MiningView, "__init__", "view.build")
    tracer.patch(view.SupportIndex, "__init__", "view.support_index")
    # core.enumeration: the walk kernels, entered from the top-k miner.
    tracer.patch(topk_miner, "run_enumeration", "enumeration",
                 _count_enumeration)
    # core.prefix_tree: projections and the root tree build.
    tracer.patch(prefix_tree.PrefixTree, "project", "prefix_tree.project")
    tracer.patch(prefix_tree.PrefixTree, "from_items", "prefix_tree.build")
    # core.topk_miner / core.rules: policy, threshold folds, offers.
    tracer.patch(topk_miner.TopkPolicy, "__init__", "topk.policy_init")
    tracer.patch(topk_miner.TopkPolicy, "finalize", "topk.finalize")
    tracer.patch(topk_miner.TopkPolicy, "_thresholds", "threshold.fold")
    tracer.patch(rules.TopKList, "offer", "topk.offer", _count_offer)
    # core.backends / core.hybrid planners (choices come from the
    # planners' own honesty counters; the spans only time them).
    tracer.patch(backends, "plan_auto_backend", "planner.backend")
    tracer.patch(hybrid, "plan_auto_strategy", "planner.strategy")
    # core.hybrid: the whole hybrid mine, its partitions, and the
    # per-partition top-k mines it makes.
    tracer.patch(hybrid, "mine_topk_hybrid", "hybrid")
    tracer.patch(hybrid, "mine_hybrid_partition", "hybrid.partition")
    tracer.patch(hybrid, "mine_topk", "topk.mine")
    # classifiers: RCBT fit, its mines, CBA selection, FindLB, predict.
    tracer.patch(rcbt.RCBTClassifier, "fit", "rcbt.fit")
    tracer.patch(rcbt, "mine_topk", "topk.mine")
    tracer.patch(rcbt, "cba_select_groups", "rcbt.cba_select")
    tracer.patch(rcbt, "find_lower_bounds_batch", "lower_bounds",
                 _count_lower_bounds)
    tracer.patch(rcbt.RCBTClassifier, "predict_batch", "rcbt.predict_batch",
                 _count_predict)
    # service: payload decode, cache key and the job's mine.
    tracer.patch(server, "discretized_from_payload", "service.decode")
    tracer.patch(server, "dataset_fingerprint", "service.fingerprint")
    tracer.patch(server, "mine_topk", "topk.mine")
