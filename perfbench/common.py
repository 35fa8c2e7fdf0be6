"""Shared helpers: statistics, isolated children, host facts, reporting."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import traceback
from typing import Callable, Optional

__all__ = [
    "LAYER_METRICS",
    "attributed_self_time",
    "fresh_copy",
    "halves_ratio",
    "host_facts",
    "interquartile_mean",
    "layer_metrics",
    "median",
    "peak_rss_mb",
    "percentile",
    "permuted",
    "print_result",
    "result_digest",
    "run_isolated",
]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def interquartile_mean(values) -> float:
    """Mean of the middle half of ``values`` (all of them below four)."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    return statistics.fmean(middle) if middle else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def halves_ratio(values) -> float:
    """Median of the second half of ``values`` over that of the first."""
    values = list(values)
    half = len(values) // 2
    if not half:
        return 1.0
    return median(values[-half:]) / median(values[:half])


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_copy(dataset):
    """A new dataset object over the same rows: no cached views attach."""
    from repro.data.dataset import DiscretizedDataset

    return DiscretizedDataset(
        dataset.rows, dataset.labels, dataset.items,
        class_names=dataset.class_names, name=dataset.name,
    )


def permuted(dataset, order):
    """A new dataset object holding ``dataset``'s rows in ``order``."""
    from repro.data.dataset import DiscretizedDataset

    return DiscretizedDataset(
        [dataset.rows[i] for i in order], [dataset.labels[i] for i in order],
        dataset.items, class_names=dataset.class_names, name=dataset.name,
    )


def result_digest(result) -> tuple:
    """Canonical, hashable content of a ``TopkResult``'s per-row lists."""
    return tuple(
        (row, tuple(
            (tuple(sorted(group.antecedent)), group.row_set,
             group.support, group.confidence)
            for group in groups
        ))
        for row, groups in sorted(result.per_row.items())
    )


def _child(conn, fn: Callable, args: tuple) -> None:
    try:
        payload = ("ok", fn(*args))
    except Exception:  # reported to the parent, which counts a failure
        payload = ("error", traceback.format_exc())
    conn.send(payload)
    conn.close()


def run_isolated(fn: Callable, *args, timeout: float = 170.0):
    """Run ``fn(*args)`` in a child forked from this process.

    The child starts from the parent's state after set-up (so inputs are
    shared, not rebuilt) and exits after one call, so whatever the call
    leaves cached or leaked dies with it: every op starts cold, and
    earlier ops cannot slow later ones.  Returns ``("ok", value)`` or
    ``("error", text)``.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child, args=(sender, fn, args))
    process.start()
    sender.close()
    try:
        if receiver.poll(timeout):
            payload = receiver.recv()
        else:
            payload = ("error", f"timed out after {timeout:.0f} s")
    except EOFError:
        payload = ("error", "child exited without a result")
    finally:
        receiver.close()
        if process.is_alive() and payload[0] == "error":
            process.kill()
        process.join()
    if payload[0] == "ok" and process.exitcode != 0:
        payload = ("error", f"child exit code {process.exitcode}")
    return payload


def host_facts() -> dict:
    import numpy

    from repro.core.backends import available_backends

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backends": list(available_backends()),
    }


# Per-layer self-time metrics and the spans whose self times each one
# sums.  On ``paper`` and ``tall`` these metrics plus ``unattributed_s``
# add up to ``trace.round_s``; a span left out here (the benchmark's own
# ``topk.mine`` wrapper, the planners, a future untraced step inside a
# layer) shows up in ``unattributed_s``, not in a layer.
SELF_TIME_METRICS = {
    "view.build_s": ("view.build", "view.support_index"),
    "enumeration.s": ("enumeration",),
    "prefix_tree.project_s": ("prefix_tree.project", "prefix_tree.build"),
    "topk.policy_init_s": ("topk.policy_init",),
    "topk.finalize_s": ("topk.finalize",),
    "topk.offer_s": ("topk.offer",),
    "threshold.fold_s": ("threshold.fold",),
    # The hybrid mine and its partitions outside their per-partition
    # top-k mines: partition building, spill writes and reads, merging.
    "hybrid.overhead_s": ("hybrid", "hybrid.partition"),
    "lower_bounds.s": ("lower_bounds",),
    "rcbt.fit_self_s": ("rcbt.fit",),
    "rcbt.cba_select_s": ("rcbt.cba_select",),
    "rcbt.predict_batch_s": ("rcbt.predict_batch",),
}

# (name, unit) of every per-layer metric, in report order.  Times are
# per round (per traced phase round on serve-mixed).
LAYER_METRICS = [
    ("data.generate_s", "s"),
    ("data.discretize_s", "s"),
    ("view.build_s", "s"),
    ("view.build_calls", "count"),
    ("enumeration.s", "s"),
    ("enumeration.nodes", "count"),
    ("enumeration.pruned_ratio", "ratio"),
    ("enumeration.emit_ratio", "ratio"),
    ("prefix_tree.project_calls", "count"),
    ("prefix_tree.project_s", "s"),
    ("topk.policy_init_s", "s"),
    ("topk.finalize_s", "s"),
    ("topk.offer_s", "s"),
    ("topk.offer_calls", "count"),
    ("topk.offer_accept_ratio", "ratio"),
    ("threshold.fold_calls", "count"),
    ("threshold.fold_s", "s"),
    ("planner.backend.int", "count"),
    ("planner.backend.numpy", "count"),
    ("planner.backend.packed", "count"),
    ("planner.strategy.direct", "count"),
    ("planner.strategy.hybrid", "count"),
    ("hybrid.partition_calls", "count"),
    ("hybrid.partition_s", "s"),
    ("hybrid.overhead_s", "s"),
    ("hybrid.peak_resident_cells", "cells"),
    ("hybrid.spilled_partitions", "count"),
    ("lower_bounds.s", "s"),
    ("lower_bounds.groups", "count"),
    ("rcbt.fit_self_s", "s"),
    ("rcbt.cba_select_s", "s"),
    ("rcbt.predict_batch_s", "s"),
    ("rcbt.predict_rows", "count"),
    ("http.classify_server_ms", "ms"),
    ("coalesce.batch_rows_mean", "rows"),
    ("jobs.queue_wait_s", "s"),
    ("jobs.run_s", "s"),
    ("jobs.kernel_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("server.rss_growth_mb", "MB"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.round_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(snapshot: dict, per: float, extra: dict) -> dict:
    """Per-layer metric values from a merged tracer snapshot.

    ``per`` divides times and counts (the number of rounds the snapshot
    covers); ratios are taken before dividing.  ``extra`` supplies the
    values that come from outside the spans (planner choices, hybrid
    stats, service scrapes, residual and overhead) and overrides
    computed ones.
    """
    spans = snapshot["spans"]
    counters = snapshot["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    nodes = counters.get("enumeration.nodes", 0)
    values = {
        name: _self_time(spans, names) / per
        for name, names in SELF_TIME_METRICS.items()
    }
    values.update({
        "view.build_calls": calls("view.build") / per,
        "enumeration.nodes": nodes / per,
        "enumeration.pruned_ratio": _ratio(
            counters.get("enumeration.pruned", 0), nodes),
        "enumeration.emit_ratio": _ratio(
            counters.get("enumeration.emitted", 0), nodes),
        "prefix_tree.project_calls": calls("prefix_tree.project") / per,
        "topk.offer_calls": calls("topk.offer") / per,
        "topk.offer_accept_ratio": _ratio(
            counters.get("topk.offer_accepted", 0), calls("topk.offer")),
        "threshold.fold_calls": calls("threshold.fold") / per,
        "hybrid.partition_calls": calls("hybrid.partition") / per,
        "hybrid.partition_s": total("hybrid.partition") / per,
        "lower_bounds.groups": counters.get("lower_bounds.groups", 0) / per,
        "rcbt.predict_rows": counters.get("rcbt.predict_rows", 0) / per,
    })
    values.update(extra)
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in LAYER_METRICS
    }


def _self_time(spans: dict, names) -> float:
    return sum(spans.get(name, (0, 0.0, 0.0))[2] for name in names)


def attributed_self_time(snapshot: dict) -> float:
    """Self time of the spans that feed a reported self-time metric."""
    return sum(_self_time(snapshot["spans"], names)
               for names in SELF_TIME_METRICS.values())


def print_result(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict,
    notes: Optional[list] = None,
) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    for line in notes or ():
        print(line)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)
