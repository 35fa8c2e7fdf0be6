"""The differential oracle: one audit case, every cross-check.

The paper's correctness claims are equivalence claims, which makes the
repo rich in free oracles.  For one generated case this module:

* mines with every engine (``bitset``/``table``/``tree``) and asserts
  the results are **bit-identical** (engines visit the same closed nodes
  in the same order, so even tie order must agree);
* mines with every optimization-flag combination and asserts the
  (confidence, support) **profiles** match the naive brute-force
  baseline (flag variants may discover ties in a different order, so
  profiles — not antecedent identity — are the contract, exactly as in
  the paper);
* re-mines with ``n_jobs > 1`` and asserts the sharded parallel merge
  is bit-identical to the serial run;
* on rotated cases, re-mines with ``strategy="hybrid"`` (the
  column-partitioned out-of-core miner) and asserts the result — and
  the ``completed`` honesty flag — are bit-identical to the direct run;
* on rotated cases, re-mines through the *warm* miner pool and with
  ``n_jobs="auto"`` and asserts the adaptive planner and pool reuse
  change nothing;
* on rotated cases, re-mines with an injected worker **kill** on shard 0
  (:class:`repro.parallel.FaultPlan`) and asserts the crash-recovery
  supervisor returns a result bit-identical to the serial oracle, with
  the retry visible in ``pool_stats()``;
* round-trips the result through the service cache and its JSON
  payload, the dataset through its payload codec (fingerprints and
  re-mined results must survive), and fitted RCBT/CBA classifiers
  through :mod:`repro.classifiers.persistence`;
* runs the invariant catalog of :mod:`.invariants` on every mined
  result.

Every failure message is prefixed with the case description and carries
the copy-pastable reproducing command.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from ..baselines.naive_topk import naive_topk
from ..classifiers.cba import CBAClassifier
from ..classifiers.persistence import classifier_from_payload, classifier_to_payload
from ..classifiers.rcbt import RCBTClassifier
from ..core.enumeration import ENGINES
from ..core.topk_miner import TopkResult, mine_topk
from ..data.loaders import discretized_from_payload, discretized_to_payload
from ..parallel import FaultPlan, mine_topk_parallel, pool_stats, results_equal
from ..service.cache import MiningCache, dataset_fingerprint, mining_key
from ..service.server import topk_result_to_payload
from .generator import AuditCase
from .invariants import (
    InvariantViolation,
    check_cba_order,
    check_rcbt_coverage,
    check_topk_result,
)

__all__ = ["AuditFailure", "audit_case", "profiles"]

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
        parallel_jobs: worker processes for the serial-vs-parallel
            check; values < 2 skip it (e.g. in sandboxes without a
            usable multiprocessing context).
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
    for engine, result in engine_results.items():
        if engine == "bitset":
            continue
        auditor.expect(
            f"engine-equal:{engine}",
            results_equal(reference, result),
            f"{engine} result differs bit-for-bit from bitset",
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

    # -- serial vs sharded parallel: bit-identical -------------------------
    if parallel_jobs > 1:
        # Rotate the engine so the whole suite covers all three without
        # paying three process-pool spin-ups per case.
        engine = ENGINES[case.index % len(ENGINES)]
        serial = engine_results.get(engine)
        parallel = auditor.mine(
            f"parallel:{engine}", engine=engine, n_jobs=parallel_jobs
        )
        if parallel is not None and serial is not None:
            auditor.expect(
                f"parallel-equal:{engine}",
                results_equal(serial, parallel),
                f"n_jobs={parallel_jobs} result differs from serial "
                f"({engine} engine)",
            )

    # -- warm pool + adaptive planner: bit-identical -----------------------
    if parallel_jobs > 1 and case.index % 3 == 0:
        # Rotated like the engine above.  Two properties ride this check:
        # the planner path (n_jobs="auto" picks serial or parallel per
        # workload and must change nothing either way), and miner-pool
        # reuse — the pool is warm from the parallel check just above, so
        # this mine rides already-running workers.
        engine = ENGINES[case.index % len(ENGINES)]
        serial = engine_results.get(engine)
        auto = auditor.mine(f"pool:auto:{engine}", engine=engine, n_jobs="auto")
        if auto is not None and serial is not None:
            auditor.expect(
                f"pool-auto-equal:{engine}",
                results_equal(serial, auto),
                f"n_jobs='auto' result differs from serial ({engine} engine)",
            )
        reused = auditor.mine(
            f"pool:reuse:{engine}", engine=engine, n_jobs=parallel_jobs
        )
        if reused is not None and serial is not None:
            auditor.expect(
                f"pool-reuse-equal:{engine}",
                results_equal(serial, reused),
                f"warm-pool reuse differs from serial ({engine} engine)",
            )

    # -- crash recovery: a mine surviving an injected worker kill ----------
    if parallel_jobs > 1 and case.index % 5 == 1:
        # Rotated like the pool checks above (every fault costs a pool
        # generation).  FaultPlan kills the worker mining shard 0 on its
        # first attempt; the supervisor must heal the pool, resubmit the
        # lost shards, and hand back a result bit-identical to the
        # serial oracle — with the retry visible in pool_stats() and no
        # BrokenProcessPool escaping to us.
        def _crash_survival() -> None:
            retries_before = pool_stats()["shard_retries"]
            result = mine_topk_parallel(
                case.dataset, case.consequent, case.minsup, k=case.k,
                n_jobs=parallel_jobs, fault=FaultPlan.parse("kill@0.0"),
            )
            if not results_equal(reference, result):
                raise InvariantViolation(
                    "result after an injected shard-0 worker crash "
                    "differs bit-for-bit from the serial oracle"
                )
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
