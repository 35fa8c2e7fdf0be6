"""The differential oracle: one audit case, every cross-check.

The paper's correctness claims are equivalence claims, which makes the
repo rich in free oracles.  For one generated case this module:

* mines with every engine (``bitset``/``table``/``tree``) and asserts
  the results are **bit-identical** (even tie order must agree), and
  that the walk counters (nodes, prunes, emits) of ``table`` equal
  ``bitset``'s, as do ``tree``'s when every row holds a frequent item —
  otherwise the tree engine's root frame lacks the empty rows;
* mines with every optimization-flag combination and asserts the
  (confidence, support) **profiles** match the naive brute-force
  baseline (flag variants may discover ties in a different order, so
  profiles — not antecedent identity — are the contract, exactly as in
  the paper);
* re-mines with ``strategy="hybrid", n_jobs > 1`` (partitions on the
  process pool) and asserts the result is bit-identical to the direct
  serial run;
* on rotated cases, re-mines with ``strategy="hybrid"`` (the
  column-partitioned out-of-core miner) and asserts the result — and
  the ``completed`` honesty flag — are bit-identical to the direct run;
* on rotated cases, re-mines the hybrid path with ``n_jobs="auto"``
  and the case's request as two whole per-request units on the *warm*
  miner pool (:func:`repro.parallel.mine_topk_requests`), and asserts
  the adaptive planner and pool reuse change nothing — per-request
  units keep the serial ``nodes_visited`` too;
* on rotated cases, re-mines the per-request units with an injected
  worker **kill** on request 0 (:class:`repro.parallel.FaultPlan`) and
  asserts the crash-recovery supervisor returns results bit-identical
  to the serial oracle, with the retry visible in ``pool_stats()``;
* round-trips the result through the service cache and its JSON
  payload, the dataset through its payload codec (fingerprints and
  re-mined results must survive), and fitted RCBT/CBA classifiers
  through :mod:`repro.classifiers.persistence`;
* runs the invariant catalog of :mod:`.invariants` on every mined
  result;
* discretizes the case's raw matrix and asserts the batched
  :class:`~repro.data.discretize.EntropyDiscretizer` cuts and rows are
  bit-identical to :func:`reference_mdl_cut_points`, the per-gene
  recursion kept here as the reference implementation.

Every failure message is prefixed with the case description and carries
the copy-pastable reproducing command.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..baselines.naive_topk import naive_topk
from ..classifiers.cba import CBAClassifier
from ..classifiers.persistence import classifier_from_payload, classifier_to_payload
from ..classifiers.rcbt import RCBTClassifier
from ..core.enumeration import ENGINES
from ..core.topk_miner import TopkResult, mine_topk
from ..core.view import MiningView
from ..data.dataset import GeneExpressionDataset
from ..data.discretize import EntropyDiscretizer, entropy, mdl_cut_points
from ..data.loaders import discretized_from_payload, discretized_to_payload
from ..parallel import (
    FaultPlan,
    MineRequest,
    mine_topk_requests,
    pool_stats,
    results_equal,
)
from ..service.cache import MiningCache, dataset_fingerprint, mining_key
from ..service.server import topk_result_to_payload
from .generator import AuditCase, generate_raw_matrix
from .invariants import (
    InvariantViolation,
    check_cba_order,
    check_rcbt_coverage,
    check_topk_result,
)

__all__ = [
    "AuditFailure",
    "audit_case",
    "profiles",
    "reference_discretize",
    "reference_mdl_cut_points",
]

# All eight Section 4.1.1 optimization-flag combinations
# (initialize_single_items, dynamic_minsup, use_topk_pruning).
FLAG_COMBOS = tuple(itertools.product((True, False), repeat=3))
# The cheap subset used by --quick: defaults plus the all-off ablation.
QUICK_FLAG_COMBOS = ((True, True, True), (False, False, False))


@dataclass(frozen=True)
class AuditFailure:
    """One differential mismatch or invariant violation."""

    case_index: int
    check: str
    message: str
    repro_command: str

    def render(self) -> str:
        return (
            f"case {self.case_index} [{self.check}] {self.message}\n"
            f"    reproduce: {self.repro_command}"
        )


def _walk_counters(stats) -> dict:
    """The counters of :class:`MinerStats` that describe the walk."""
    return {name: getattr(stats, name) for name in (
        "nodes_visited", "loose_pruned", "tight_pruned", "backward_pruned",
        "groups_emitted",
    )}


def profiles(per_row: dict) -> dict:
    """Tie-order-independent view of a per-row result: stats per rank."""
    return {
        row: [(group.confidence, group.support) for group in groups]
        for row, groups in per_row.items()
    }


class _CaseAuditor:
    """Collects failures for one case instead of stopping at the first."""

    def __init__(self, case: AuditCase) -> None:
        self.case = case
        self.failures: list[AuditFailure] = []
        self.checks_run = 0

    def record(self, check: str, message: str) -> None:
        self.failures.append(
            AuditFailure(
                case_index=self.case.index,
                check=check,
                message=f"{self.case.describe()}: {message}",
                repro_command=self.case.repro_command(),
            )
        )

    def run(self, check: str, fn) -> None:
        """Run one named check, converting any failure into a record."""
        self.checks_run += 1
        try:
            fn()
        except InvariantViolation as violation:
            self.record(check, str(violation))
        except Exception as error:  # unexpected crash is also a finding
            self.record(check, f"crashed: {type(error).__name__}: {error}")

    def expect(self, check: str, condition: bool, message: str) -> None:
        self.checks_run += 1
        if not condition:
            self.record(check, message)

    def mine(self, check: str, **kwargs) -> TopkResult | None:
        """Mine this case's request; a crash records a failure."""
        self.checks_run += 1
        case = self.case
        try:
            return mine_topk(
                case.dataset, case.consequent, case.minsup, k=case.k, **kwargs
            )
        except Exception as error:
            self.record(check, f"mine_topk crashed: "
                               f"{type(error).__name__}: {error}")
            return None


def audit_case(
    case: AuditCase,
    parallel_jobs: int = 2,
    quick: bool = False,
) -> tuple[list[AuditFailure], int]:
    """Run every differential and invariant check on one case.

    Args:
        case: the generated case to audit.
        parallel_jobs: worker processes for the pool checks (hybrid
            partitions, per-request units, crash recovery); values < 2
            skip them (e.g. in sandboxes without a usable
            multiprocessing context).
        quick: trim the flag matrix and skip classifier round-trips —
            the bounded CI profile.

    Returns:
        ``(failures, checks_run)``.
    """
    auditor = _CaseAuditor(case)
    dataset = case.dataset

    # -- engines: bit-identical results + full invariant catalog ----------
    engine_results: dict[str, TopkResult] = {}
    for engine in ENGINES:
        result = auditor.mine(f"engine:{engine}", engine=engine)
        if result is None:
            continue
        engine_results[engine] = result
        auditor.run(
            f"invariants:{engine}",
            lambda r=result: check_topk_result(dataset, r),
        )
    reference = engine_results.get("bitset")
    if reference is None:
        return auditor.failures, auditor.checks_run
    # The table engine walks the bitset engine's tree node for node; the
    # tree engine does too when every row holds a frequent item (its
    # root candidates are the rows of its root prefix tree).
    view = MiningView.cached(dataset, case.consequent, case.minsup)
    every_row_holds_an_item = all(view.row_items)
    for engine, result in engine_results.items():
        if engine == "bitset":
            continue
        auditor.expect(
            f"engine-equal:{engine}",
            results_equal(reference, result),
            f"{engine} result differs bit-for-bit from bitset",
        )
        if engine == "table" or every_row_holds_an_item:
            counters, expected = (
                _walk_counters(result.stats), _walk_counters(reference.stats)
            )
            auditor.expect(
                f"engine-counters:{engine}",
                counters == expected,
                f"{engine} walk counters {counters} differ from bitset's "
                f"{expected}",
            )

    # -- naive baseline: profile equality ---------------------------------
    expected_profiles: dict | None = None

    def _naive() -> None:
        nonlocal expected_profiles
        expected_profiles = profiles(
            naive_topk(dataset, case.consequent, case.minsup, case.k)
        )

    auditor.run("naive-oracle", _naive)
    if expected_profiles is not None:
        auditor.expect(
            "naive-vs-miner",
            profiles(reference.per_row) == expected_profiles,
            "MineTopkRGS profiles differ from the naive top-k baseline",
        )

    # -- optimization flags: profiles invariant under every combination ---
    combos = QUICK_FLAG_COMBOS if quick else FLAG_COMBOS
    for init, dynamic, pruning in combos:
        if (init, dynamic, pruning) == (True, True, True):
            continue  # the reference itself
        name = f"flags:init={init:d},dyn={dynamic:d},prune={pruning:d}"
        result = auditor.mine(
            name,
            engine="bitset",
            initialize_single_items=init,
            dynamic_minsup=dynamic,
            use_topk_pruning=pruning,
        )
        if result is None:
            continue
        auditor.expect(
            name,
            profiles(result.per_row) == profiles(reference.per_row),
            "profiles changed under optimization flags",
        )
        auditor.run(
            f"invariants:{name}",
            lambda r=result: check_topk_result(dataset, r),
        )

    # -- hybrid strategy: bit-identical to direct --------------------------
    if case.index % 4 == 2:
        # Rotated across cases: the column-partitioned hybrid
        # miner (strategy="hybrid") must reproduce the direct result bit
        # for bit — per-row lists AND the completed honesty flag — on the
        # same rotated engine.
        engine = ENGINES[case.index % len(ENGINES)]
        serial = engine_results.get(engine)
        hybrid = auditor.mine(
            f"hybrid:{engine}", engine=engine, strategy="hybrid"
        )
        if hybrid is not None and serial is not None:
            auditor.expect(
                f"hybrid-equal:{engine}",
                results_equal(serial, hybrid),
                f"strategy='hybrid' result differs bit-for-bit from "
                f"direct ({engine} engine)",
            )
            auditor.expect(
                f"hybrid-completed:{engine}",
                hybrid.stats.completed == serial.stats.completed,
                "strategy='hybrid' completed flag differs from direct",
            )
            auditor.run(
                f"invariants:hybrid:{engine}",
                lambda r=hybrid: check_topk_result(dataset, r),
            )

    # -- pool paths: hybrid partitions + per-request units ----------------
    # A direct mine is one in-process enumeration (its dynamic thresholds
    # cannot be split across row shards), so what runs on pool workers is
    # a hybrid mine's partitions and whole per-request mines.  Both must
    # reproduce the direct serial result bit for bit.
    if parallel_jobs > 1:
        # Rotate the engine so the whole suite covers all three without
        # paying three process-pool spin-ups per case.
        engine = ENGINES[case.index % len(ENGINES)]
        serial = engine_results.get(engine)
        parallel = auditor.mine(
            f"parallel:{engine}", engine=engine, strategy="hybrid",
            n_jobs=parallel_jobs,
        )
        if parallel is not None and serial is not None:
            auditor.expect(
                f"parallel-equal:{engine}",
                results_equal(serial, parallel),
                f"strategy='hybrid', n_jobs={parallel_jobs} result differs "
                f"from direct ({engine} engine)",
            )

    def _request_units(engine: str, **options) -> None:
        """Mine this case's request as two whole units on the pool; each
        must be the serial result, ``nodes_visited`` included."""
        serial = engine_results[engine]
        request = MineRequest(
            consequent=case.consequent, minsup=case.minsup, k=case.k,
            engine=engine,
        )
        for result in mine_topk_requests(
            dataset, [request, request], n_jobs=parallel_jobs, **options
        ):
            nodes = (result.stats.nodes_visited, serial.stats.nodes_visited)
            if not results_equal(serial, result) or nodes[0] != nodes[1]:
                raise InvariantViolation(
                    f"a per-request pool unit differs from the serial mine "
                    f"({engine} engine; {nodes[0]} vs {nodes[1]} nodes)"
                )

    # -- warm pool + adaptive planner: bit-identical -----------------------
    if parallel_jobs > 1 and case.index % 3 == 0:
        # Rotated like the engine above.  Two properties ride this check:
        # the planner path (n_jobs="auto" picks serial or parallel per
        # workload and must change nothing either way), and miner-pool
        # reuse — the pool is warm from the hybrid check just above, so
        # the per-request units ride already-running workers.
        engine = ENGINES[case.index % len(ENGINES)]
        serial = engine_results.get(engine)
        auto = auditor.mine(
            f"pool:auto:{engine}", engine=engine, strategy="hybrid",
            n_jobs="auto",
        )
        if auto is not None and serial is not None:
            auditor.expect(
                f"pool-auto-equal:{engine}",
                results_equal(serial, auto),
                f"strategy='hybrid', n_jobs='auto' result differs from "
                f"direct ({engine} engine)",
            )
        if serial is not None:
            auditor.run(
                f"pool:reuse:{engine}",
                lambda: _request_units(engine),
            )

    # -- crash recovery: a mine surviving an injected worker kill ----------
    if parallel_jobs > 1 and case.index % 5 == 1:
        # Rotated like the pool checks above (every fault costs a pool
        # generation).  FaultPlan kills the worker mining request 0 on
        # its first attempt; the supervisor must heal the pool, resubmit
        # the lost request, and hand back results bit-identical to the
        # serial oracle — with the retry visible in pool_stats() and no
        # BrokenProcessPool escaping to us.
        def _crash_survival() -> None:
            retries_before = pool_stats()["shard_retries"]
            _request_units("bitset", fault=FaultPlan.parse("kill@0.0"))
            if pool_stats()["shard_retries"] <= retries_before:
                raise InvariantViolation(
                    "injected worker crash was not retried "
                    "(shard_retries did not advance)"
                )

        auditor.run("fault-recovery", _crash_survival)

    # -- service cache + payload round-trips -------------------------------
    def _cache_roundtrip() -> None:
        cache = MiningCache(max_bytes=16 * 1024 * 1024)
        key = mining_key(
            dataset_fingerprint(dataset), case.consequent, case.minsup,
            case.k, "bitset",
        )
        cache.put(key, reference)
        cached = cache.get(key)
        if cached is None or not results_equal(reference, cached):
            raise InvariantViolation("cache get() does not return the "
                                     "result put()")
        payload = topk_result_to_payload(cached)
        if json.loads(json.dumps(payload)) != payload:
            raise InvariantViolation(
                "topk_result_to_payload is not JSON-stable"
            )

    auditor.run("cache-roundtrip", _cache_roundtrip)

    def _dataset_roundtrip() -> None:
        payload = json.loads(json.dumps(discretized_to_payload(dataset)))
        restored = discretized_from_payload(payload)
        if dataset_fingerprint(restored) != dataset_fingerprint(dataset):
            raise InvariantViolation(
                "dataset fingerprint changed across the payload codec"
            )
        remined = mine_topk(
            restored, case.consequent, case.minsup, k=case.k
        )
        if not results_equal(reference, remined):
            raise InvariantViolation(
                "mining the payload-round-tripped dataset changed the result"
            )

    auditor.run("dataset-roundtrip", _dataset_roundtrip)

    # -- CBA total order over the mined rules ------------------------------
    auditor.run(
        "cba-order",
        lambda: check_cba_order(
            [group.upper_bound_rule() for group in reference.unique_groups()]
        ),
    )

    # -- discretization: batched kernel vs the per-gene reference ----------
    auditor.run("discretize", lambda: _audit_discretization(case))

    # -- classifier coverage + persistence round-trips ---------------------
    if not quick and dataset.n_classes >= 2:
        auditor.run("rcbt", lambda: _audit_rcbt(dataset))
        auditor.run("cba", lambda: _audit_cba(dataset))

    return auditor.failures, auditor.checks_run


def _roundtrip(model):
    return classifier_from_payload(
        json.loads(json.dumps(classifier_to_payload(model)))
    )


def _audit_rcbt(dataset) -> None:
    model = RCBTClassifier(k=2, nl=3, max_lb_size=3).fit(dataset)
    check_rcbt_coverage(model, dataset)
    restored = _roundtrip(model)
    if restored.predict_batch(dataset.rows) != model.predict_batch(dataset.rows):
        raise InvariantViolation(
            "RCBT predictions changed across the persistence round-trip"
        )


def _audit_cba(dataset) -> None:
    model = CBAClassifier(max_lb_size=3).fit(dataset)
    check_cba_order(model.selected_.rules)
    restored = _roundtrip(model)
    if restored.predict_batch(dataset.rows) != model.predict_batch(dataset.rows):
        raise InvariantViolation(
            "CBA predictions changed across the persistence round-trip"
        )


# -- reference MDL discretization ------------------------------------------
#
# The one-gene-at-a-time Fayyad–Irani recursion that the batched kernel
# of repro.data.discretize replaced, kept as its oracle.


def _slice_entropy(counts: np.ndarray) -> tuple[float, int]:
    """Entropy and number of distinct classes present in a count vector."""
    present = int((counts > 0).sum())
    return entropy(counts), present


def _best_cut(
    values: np.ndarray, labels: np.ndarray, n_classes: int
) -> Optional[tuple[int, float]]:
    """Best binary cut of a sorted slice, or None if no cut is possible.

    Returns ``(split_index, weighted_entropy)`` where ``split_index`` is
    the first element of the right part.  Only positions where the value
    changes are candidates (one cannot separate equal values).
    """
    n = len(values)
    if n < 2:
        return None
    one_hot = np.zeros((n, n_classes), dtype=np.int64)
    one_hot[np.arange(n), labels] = 1
    cumulative = one_hot.cumsum(axis=0)
    boundaries = np.flatnonzero(values[1:] != values[:-1]) + 1
    if boundaries.size == 0:
        return None
    left = cumulative[boundaries - 1]
    total = cumulative[-1]
    right = total - left
    left_sizes = boundaries / n
    right_sizes = 1.0 - left_sizes

    def _row_entropy(block: np.ndarray) -> np.ndarray:
        sums = block.sum(axis=1, keepdims=True)
        probs = block / np.maximum(sums, 1)
        logs = np.zeros_like(probs)
        positive = probs > 0
        logs[positive] = np.log2(probs[positive])
        return -(probs * logs).sum(axis=1)

    weighted = left_sizes * _row_entropy(left) + right_sizes * _row_entropy(right)
    best = int(np.argmin(weighted))
    return int(boundaries[best]), float(weighted[best])


def _mdl_accepts(
    values: np.ndarray,
    labels: np.ndarray,
    split: int,
    weighted_entropy: float,
    n_classes: int,
) -> bool:
    """Fayyad–Irani MDL stopping criterion for a proposed cut."""
    n = len(values)
    total_counts = np.bincount(labels, minlength=n_classes)
    left_counts = np.bincount(labels[:split], minlength=n_classes)
    right_counts = total_counts - left_counts
    parent_entropy, k0 = _slice_entropy(total_counts)
    left_entropy, k1 = _slice_entropy(left_counts)
    right_entropy, k2 = _slice_entropy(right_counts)
    gain = parent_entropy - weighted_entropy
    delta = (
        math.log2(3**k0 - 2)
        - (k0 * parent_entropy - k1 * left_entropy - k2 * right_entropy)
    )
    threshold = (math.log2(n - 1) + delta) / n
    return gain > threshold


def reference_mdl_cut_points(
    values: Sequence[float], labels: Sequence[int], n_classes: Optional[int] = None
) -> list[float]:
    """Sorted MDL cut points of one gene, by per-segment recursion."""
    value_array = np.asarray(values, dtype=float)
    label_array = np.asarray(labels, dtype=int)
    # Missing measurements (NaN) carry no ordering information; fit the
    # cuts on the present values only.
    present = ~np.isnan(value_array)
    if not present.all():
        value_array = value_array[present]
        label_array = label_array[present]
    if n_classes is None:
        n_classes = int(label_array.max()) + 1 if label_array.size else 0
    order = np.argsort(value_array, kind="mergesort")
    sorted_values = value_array[order]
    sorted_labels = label_array[order]
    cuts: list[float] = []

    def _recurse(lo: int, hi: int) -> None:
        segment_values = sorted_values[lo:hi]
        segment_labels = sorted_labels[lo:hi]
        candidate = _best_cut(segment_values, segment_labels, n_classes)
        if candidate is None:
            return
        split, weighted = candidate
        if not _mdl_accepts(segment_values, segment_labels, split, weighted, n_classes):
            return
        cut_value = (segment_values[split - 1] + segment_values[split]) / 2.0
        cuts.append(float(cut_value))
        _recurse(lo, lo + split)
        _recurse(lo + split, hi)

    _recurse(0, len(sorted_values))
    return sorted(cuts)


def reference_discretize(
    values: np.ndarray,
    labels: Sequence[int],
    n_classes: int,
    max_cuts_per_gene: Optional[int] = None,
) -> tuple[dict[int, list[float]], list[list[int]]]:
    """Cuts of every kept gene and itemized rows, one gene at a time.

    Item ids are dealt gene by gene in ascending gene order, one per
    interval, as :class:`EntropyDiscretizer` deals its catalog; a row
    lists its items in that order and skips missing values.
    """
    cuts: dict[int, list[float]] = {}
    for gene in range(values.shape[1]):
        gene_cuts = reference_mdl_cut_points(
            values[:, gene], labels, n_classes
        )[:max_cuts_per_gene]
        if gene_cuts:
            cuts[gene] = gene_cuts
    rows: list[list[int]] = [[] for _ in range(values.shape[0])]
    first_id = 0
    for gene, gene_cuts in cuts.items():
        column = values[:, gene]
        positions = np.searchsorted(np.array(gene_cuts), column, side="right")
        for sample, position in enumerate(positions):
            if not np.isnan(column[sample]):
                rows[sample].append(first_id + int(position))
        first_id += len(gene_cuts) + 1
    return cuts, rows


def _hex(cuts: list[float]) -> list[str]:
    return [cut.hex() for cut in cuts]


def _audit_discretization(case: AuditCase) -> None:
    raw = generate_raw_matrix(case.seed, case.index)
    values = np.array(raw.values, dtype=float).reshape(
        len(raw.labels), raw.n_genes
    )
    dataset = GeneExpressionDataset(
        values, raw.labels, class_names=[f"c{i}" for i in range(raw.n_classes)]
    )
    expected_cuts, expected_rows = reference_discretize(
        values, raw.labels, raw.n_classes, raw.max_cuts_per_gene
    )
    context = (
        f"raw matrix {values.shape[0]} samples x {values.shape[1]} genes, "
        f"{raw.n_classes} classes, max_cuts_per_gene={raw.max_cuts_per_gene}"
    )
    discretizer = EntropyDiscretizer(raw.max_cuts_per_gene).fit(dataset)
    if {g: _hex(c) for g, c in discretizer.cuts_.items()} != {
        g: _hex(c) for g, c in expected_cuts.items()
    }:
        raise InvariantViolation(
            f"{context}: batched cuts {discretizer.cuts_} differ from the "
            f"reference {expected_cuts}"
        )
    rows = [list(row) for row in discretizer.transform(dataset).rows]
    if rows != [list(frozenset(row)) for row in expected_rows]:
        raise InvariantViolation(
            f"{context}: transformed rows differ from the reference"
        )
    for gene in range(values.shape[1]):
        column = values[:, gene]
        if _hex(mdl_cut_points(column, raw.labels)) != _hex(
            reference_mdl_cut_points(column, raw.labels)
        ):
            raise InvariantViolation(
                f"{context}: mdl_cut_points differs from the reference on "
                f"gene {gene}"
            )
