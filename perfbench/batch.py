"""The ``paper`` and ``tall`` workloads: fixed op lists on seeded cohorts.

Each op (one mine, or one RCBT fit plus batch prediction) runs cold in
a child forked after set-up; see :func:`common.run_isolated`.  A round
runs every op once, and rounds repeat until ``--seconds`` have passed.
The first round's children also check their outputs (outside the timed
region); later rounds must reproduce the first round's output digests.
The run is pinned to one CPU, and every untraced op and set-up runs
beside a host-speed sampler that scales its time to reference speed
(see :mod:`hostspeed`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from types import SimpleNamespace
from typing import Callable

import numpy as np

from repro.audit.invariants import InvariantViolation, check_topk_result
from repro.classifiers.rcbt import RCBTClassifier
from repro.core.backends import auto_backend_stats
from repro.core.hybrid import auto_strategy_stats
from repro.core.topk_miner import mine_topk, relative_minsup
from repro.data.dataset import GeneExpressionDataset
from repro.data.discretize import EntropyDiscretizer
from repro.data.synthetic import (
    PAPER_DATASETS,
    TALL_COHORTS,
    generate_dataset,
    generate_tall_cohort,
)

from common import (
    attributed_self_time,
    fresh_copy,
    halves_ratio,
    layer_metrics,
    median,
    peak_rss_mb,
    permuted,
    result_digest,
    run_isolated,
)
from hostspeed import SpeedSampler, pin_to
from spans import Tracer, install_layers, merge_snapshots

__all__ = ["run_batch_workload"]

# Paper cohorts and their gene-count scales.  Table 1 shapes at these
# scales keep one round near 5 s of wall time on one core, so a 25 s
# run holds several rounds.
PAPER_COHORTS = {"ALL": 0.5, "OC": 0.1, "PC": 0.25}
FIG6_POINTS = [(0.9, 1), (0.9, 100), (0.7, 1), (0.7, 100)]
# Table 2 runs on OC and PC only.  An RCBT fit on ALL takes 0.08 s on
# some permutations of the cohort and 1-3 s on others (FindLB), so that
# one op would move a paper round by a third between seeds.
TABLE2_COHORTS = ("OC", "PC")
TALL_ROWS = 256
TALL_PERMUTATIONS = 64
TALL_K = 2
TALL_MINSUP = 0.7

# A per-op-kind slowdown between the first and second half of a run
# beyond this factor means ops are not independent (a leak or a warm
# cache), which fails the run.  Ops shorter than DRIFT_MIN_S are skipped:
# at that size host noise alone exceeds the bound.
DRIFT_BOUND = 2.5
DRIFT_MIN_S = 0.1

# Least total time the repeated set-ups of an untraced run take.
SETUP_MIN_S = 1.0

# Share of a traced round the reported self-time metrics may leave
# unattributed before the traced run fails: the layers must account for
# the time.
RESIDUAL_BOUND = 0.05

# Planner choices the committed program makes on the tall ops; a run
# whose choices differ says so in its output.
EXPECTED_CHOICES = {
    "tall auto": {"backend": {"numpy": 1}, "strategy": {"direct": 1}},
    "tall hybrid": {"backend": {"numpy": 1}, "strategy": {}},
    "tall hybrid+spill": {"backend": {"numpy": 1}, "strategy": {}},
}


@dataclasses.dataclass
class Op:
    kind: str
    dataset: object        # a fresh copy is made before each timed call
    run: Callable          # run(calls, dataset) -> output; the timed region
    digest: Callable       # digest(output) -> hashable content
    check: Callable        # check(output) -> list of problems (untimed)
    same_as: str = ""      # op kind whose output must be identical


def _calls(tracer=None) -> SimpleNamespace:
    """Entry points the benchmark itself calls, traced when asked."""
    calls = SimpleNamespace(
        generate_dataset=generate_dataset,
        generate_tall_cohort=generate_tall_cohort,
        mine_topk=mine_topk,
    )
    if tracer is not None:
        calls.generate_dataset = tracer.wrap("data.generate", generate_dataset)
        calls.generate_tall_cohort = tracer.wrap(
            "data.generate", generate_tall_cohort)
        calls.mine_topk = tracer.wrap("topk.mine", mine_topk)
    return calls


def _digest_hex(content) -> str:
    return hashlib.sha256(repr(content).encode()).hexdigest()


def _invariants(dataset, result) -> list:
    try:
        check_topk_result(fresh_copy(dataset), result)
    except InvariantViolation as error:
        return [f"invariant: {error}"]
    return []


# -- set-up ---------------------------------------------------------------


def _paper_cohort(name: str, scale: float, rng, calls):
    """Generate one Table 1 cohort, permute samples and genes, discretize.

    The cohort is the spec's own (Table 1 seed); the workload seed draws
    the sample and gene permutations.  Re-dealing the cohort from the
    seed instead moves the mining work by 16-60% between seeds, which no
    regression bound could absorb; a permuted cohort is a new input
    (row ids, item ids, enumeration order all change) with the same work.
    """
    spec = PAPER_DATASETS[name].scaled(scale)
    train, test = calls.generate_dataset(spec)
    genes = rng.permutation(train.n_genes)

    def shuffle(data: GeneExpressionDataset) -> GeneExpressionDataset:
        rows = rng.permutation(data.n_samples)
        return GeneExpressionDataset(
            data.values[rows][:, genes], data.labels[rows],
            [data.gene_names[g] for g in genes], data.class_names,
            name=data.name,
        )

    train, test = shuffle(train), shuffle(test)
    discretizer = EntropyDiscretizer().fit(train)
    return SimpleNamespace(
        name=name, train_raw=train, test_raw=test, discretizer=discretizer,
        train=discretizer.transform(train), test=discretizer.transform(test),
    )


def paper_setup(seed: int, calls) -> dict:
    rng = np.random.default_rng(seed)
    return {
        name: _paper_cohort(name, scale, rng, calls)
        for name, scale in PAPER_COHORTS.items()
    }


def tall_setup(seed: int, calls) -> list:
    """Row permutations of the committed tall cohort, one per round.

    A permutation reorders the class-dominant ties the enumeration walks,
    which moves the work of one mine by up to 10%; giving every round
    its own permutation averages that over the run instead of fixing it
    per seed.
    """
    cohort = calls.generate_tall_cohort(
        TALL_COHORTS["tall-1k"].scaled(TALL_ROWS / 1024))
    rng = np.random.default_rng(seed)
    return [permuted(cohort, rng.permutation(cohort.n_rows))
            for _ in range(TALL_PERMUTATIONS)]


# -- op lists -------------------------------------------------------------


def paper_ops(cohorts: dict) -> list:
    train = cohorts["ALL"].train
    ops = []
    for fraction, k in FIG6_POINTS:
        minsup = relative_minsup(train, 1, fraction)

        def run(calls, dataset, minsup=minsup, k=k):
            return calls.mine_topk(dataset, 1, minsup, k=k, engine="tree")

        def check(result, minsup=minsup, k=k):
            # Independent path: the bitset engine on the same input.
            reference = mine_topk(
                fresh_copy(train), 1, minsup, k=k, engine="bitset")
            problems = _invariants(train, result)
            if result_digest(reference) != result_digest(result):
                problems.append("tree engine differs from bitset engine")
            return problems

        ops.append(
            Op(f"fig6 {fraction} k{k}", train, run, result_digest, check))
    for name in TABLE2_COHORTS:
        cohort = cohorts[name]

        def run(calls, dataset, cohort=cohort):
            model = RCBTClassifier(k=10, nl=20).fit(dataset)
            return model, model.predict_batch(cohort.test.rows)

        def digest(output):
            model, predictions = output
            return (tuple(predictions), tuple(
                result_digest(model.topk_results_[c])
                for c in sorted(model.topk_results_)))

        def check(output, cohort=cohort):
            model, predictions = output
            problems = []
            for result in model.topk_results_.values():
                problems += _invariants(cohort.train, result)
            singles = [model.predict_row(row) for row in cohort.test.rows]
            if singles != list(predictions):
                problems.append("predict_batch differs from predict_row")
            return problems

        ops.append(Op(f"table2 {name}", cohort.train, run, digest, check))
    return ops


def tall_ops(cohort, spill_dir: str) -> list:
    minsup = relative_minsup(cohort, 1, TALL_MINSUP)
    budget = sum(len(row) for row in cohort.rows) // 4

    def mine(**options):
        def run(calls, dataset):
            return calls.mine_topk(
                dataset, 1, minsup, k=TALL_K, backend="auto", **options)
        return run

    def check(result):
        return _invariants(cohort, result)

    return [
        Op("tall auto", cohort, mine(strategy="auto"), result_digest, check),
        # Hybrid must equal the direct mine the planner picked above.
        Op("tall hybrid", cohort, mine(strategy="hybrid"), result_digest,
           check, same_as="tall auto"),
        Op("tall hybrid+spill", cohort,
           mine(strategy="hybrid", spill_dir=spill_dir,
                max_resident_cells=budget),
           result_digest, check, same_as="tall auto"),
    ]


# -- measurement ----------------------------------------------------------


def _planner_counts() -> dict:
    return {"backend": auto_backend_stats(), "strategy": auto_strategy_stats()}


def _measure(op: Op, traced: bool, check: bool) -> dict:
    """Child body: time one op, then (untimed) digest and check it.

    An untraced op runs beside a host-speed sampler; ``elapsed`` is its
    time at reference speed and ``raw`` its wall time without probes.
    """
    tracer = sampler = None
    if traced:
        tracer = Tracer()
        install_layers(tracer)
    calls = _calls(tracer)
    dataset = fresh_copy(op.dataset)
    before = _planner_counts()
    if not traced:
        sampler = SpeedSampler().start()
    start = time.perf_counter()
    output = op.run(calls, dataset)
    elapsed = time.perf_counter() - start
    raw = elapsed
    if tracer is not None:
        tracer.restore()
    else:
        sampler.stop()
        raw = elapsed - sampler.spent
        elapsed = sampler.scaled(elapsed)
    after = _planner_counts()
    info = {
        "elapsed": elapsed,
        "raw": raw,
        "rss_mb": peak_rss_mb(),
        "digest": _digest_hex(op.digest(output)),
        "planner": {
            family: {
                name: count - before[family].get(name, 0)
                for name, count in counts.items()
                if count != before[family].get(name, 0)
            }
            for family, counts in after.items()
        },
        "incomplete": bool(
            hasattr(output, "stats") and not output.stats.completed),
        "hybrid": None,
        "trace": tracer.snapshot() if tracer is not None else None,
        "problems": op.check(output) if check else [],
    }
    stats = getattr(output, "hybrid_stats", None)
    if stats is not None:
        info["hybrid"] = {
            "peak_resident_cells": stats.peak_resident_cells,
            "spilled_partitions": stats.spilled_partitions,
        }
    return info


def _drift(times_by_kind: dict) -> dict:
    """Per op kind: median of the second half over the first half."""
    return {kind: halves_ratio(times)
            for kind, times in times_by_kind.items()
            if len(times) >= 2 and median(times) >= DRIFT_MIN_S}


def run_batch_workload(workload: str, seed: int, seconds: float,
                       traced: bool, scratch: str):
    """Run ``paper`` or ``tall``; returns (correct, attempted, failed,
    metrics, notes)."""
    setup = paper_setup if workload == "paper" else tall_setup
    notes = []
    # The whole run, op children included, stays on one CPU, the CPU
    # whose speed the samplers measure.
    pin_to("first")

    # Set-up is repeated and the median reported: at least three times,
    # and until the repetitions add up to SETUP_MIN_S, so a set-up of a
    # few milliseconds (tall) is the median of many.  The last
    # repetition's inputs are used.  The traced run sets up once, under
    # the tracer.  Untraced set-up times are at reference host speed.
    setup_times = []
    setup_raw = []
    setup_trace = None
    while not setup_times or (not traced and (
            len(setup_times) < 3 or sum(setup_raw) < SETUP_MIN_S)):
        tracer = sampler = None
        if traced:
            tracer = Tracer()
            install_layers(tracer)
        else:
            sampler = SpeedSampler().start()
        start = time.perf_counter()
        inputs = setup(seed, _calls(tracer))
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
            setup_trace = tracer.snapshot()
            setup_times.append(elapsed)
            setup_raw.append(elapsed)
        else:
            sampler.stop()
            setup_times.append(sampler.scaled(elapsed))
            setup_raw.append(elapsed - sampler.spent)
    if workload == "paper":
        paper = paper_ops(inputs)
        ops_for = lambda round_index: paper  # noqa: E731
    else:
        ops_for = lambda round_index: tall_ops(  # noqa: E731
            inputs[round_index % len(inputs)], scratch)
    kinds = [op.kind for op in ops_for(0)]

    attempted = failed = 0
    problems = []
    reference = {}
    times_by_kind = {kind: [] for kind in kinds}   # at reference speed
    raw_by_kind = {kind: [] for kind in kinds}
    rounds = {False: [], True: []}     # traced? -> raw round times
    rss = []
    traces = []
    layer_extra = {"hybrid.peak_resident_cells": 0.0,
                   "hybrid.spilled_partitions": 0.0}
    choices = {"backend": {}, "strategy": {}}
    window_start = time.monotonic()
    round_index = 0
    while (round_index < 2
           or time.monotonic() - window_start < seconds):
        # The traced run alternates untraced and traced rounds, so the
        # tracing overhead is measured on the same inputs in the same run.
        round_traced = traced and round_index % 2 == 1
        round_time = 0.0
        for op in ops_for(round_index):
            attempted += 1
            # Tall checks cost milliseconds and every round mines a new
            # permutation, so every tall op is checked; paper rounds
            # repeat one input, checked in the first round.
            status, info = run_isolated(
                _measure, op, round_traced,
                round_index == 0 or workload == "tall")
            if status != "ok":
                failed += 1
                problems.append(f"{op.kind}: {info.strip().splitlines()[-1]}")
                continue
            digest = info["digest"]
            expected = reference.setdefault(
                (id(op.dataset), op.same_as or op.kind), digest)
            bad = list(info["problems"])
            if digest != expected:
                bad.append("output differs from "
                           + (op.same_as or "the first round"))
            if info["incomplete"]:
                bad.append("incomplete mine")
            if bad:
                failed += 1
                problems += [f"{op.kind}: {text}" for text in bad]
            # Round times are raw wall times: traced ops run without a
            # sampler, and trace.overhead_ratio compares like with like.
            round_time += info["raw"]
            rss.append(info["rss_mb"])
            if round_traced:
                traces.append(info["trace"])
                if info["hybrid"] is not None:
                    layer_extra["hybrid.peak_resident_cells"] = max(
                        layer_extra["hybrid.peak_resident_cells"],
                        info["hybrid"]["peak_resident_cells"])
                    layer_extra["hybrid.spilled_partitions"] += (
                        info["hybrid"]["spilled_partitions"])
            else:
                times_by_kind[op.kind].append(info["elapsed"])
                raw_by_kind[op.kind].append(info["raw"])
            if round_index == 0:
                for family in choices:
                    for name, count in info["planner"][family].items():
                        choices[family][name] = (
                            choices[family].get(name, 0) + count)
                expected_choice = EXPECTED_CHOICES.get(op.kind)
                if (expected_choice is not None
                        and info["planner"] != expected_choice):
                    notes.append(
                        f"NOTE planner choice for {op.kind} differs from "
                        f"baseline: {info['planner']} vs {expected_choice}")
                notes.append(f"planner {op.kind}: {info['planner']}")
        rounds[round_traced].append(round_time)
        round_index += 1

    kind_medians = [median(times) for times in times_by_kind.values()]
    drift = _drift(times_by_kind)
    drifted = {kind: ratio for kind, ratio in drift.items()
               if ratio > DRIFT_BOUND}
    notes += [f"drift {kind}: {ratio:.3f} (second/first half)"
              for kind, ratio in sorted(drift.items())]
    notes += [f"FAIL {text}" for text in problems]
    notes += [f"FAIL drift {kind}: {ratio:.3f} > {DRIFT_BOUND}"
              for kind, ratio in drifted.items()]
    notes.append(f"rounds: {len(rounds[False])} untraced, "
                 f"{len(rounds[True])} traced; ops per round {len(kinds)}")
    notes.append(f"fail_ratio = {failed / max(attempted, 1):.6g} ratio")
    correct = failed == 0 and not drifted

    if traced:
        merged = merge_snapshots(traces)
        per = max(len(rounds[True]), 1)
        layer_extra["hybrid.spilled_partitions"] /= per
        traced_round = sum(rounds[True]) / per
        layer_extra.update({
            "planner.backend.int": choices["backend"].get("int", 0),
            "planner.backend.numpy": choices["backend"].get("numpy", 0),
            "planner.backend.packed": choices["backend"].get("packed", 0),
            "planner.strategy.direct": choices["strategy"].get("direct", 0),
            "planner.strategy.hybrid": choices["strategy"].get("hybrid", 0),
            "data.generate_s": setup_trace["spans"].get(
                "data.generate", (0, 0.0))[1],
            "data.discretize_s": setup_trace["spans"].get(
                "data.discretize", (0, 0.0))[1],
            "trace.round_s": traced_round,
            "unattributed_s": (
                traced_round - attributed_self_time(merged) / per),
            "trace.overhead_ratio": (
                median(rounds[True]) / median(rounds[False]) - 1.0),
        })
        metrics = layer_metrics(merged, per, layer_extra)
        residual = layer_extra["unattributed_s"] / traced_round
        if abs(residual) > RESIDUAL_BOUND:
            correct = False
            notes.append(f"FAIL unattributed share {residual:.3f} > "
                         f"{RESIDUAL_BOUND}")
        spans = sorted(merged["spans"].items(), key=lambda item: -item[1][2])
        notes += [f"span {name}: {calls / per:.6g} calls, "
                  f"{own / per:.6g} s self per round"
                  for name, (calls, _, own) in spans]
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            # Each op kind's median over the rounds, so one slow round of
            # one op cannot move the figure; times at reference speed.
            "round_s": {"value": sum(kind_medians), "unit": "s"},
            "peak_rss_mb": {"value": max(rss, default=0.0), "unit": "MB"},
        }
        notes += [f"op {kind}: median {1000.0 * median(times):.6g} ms "
                  f"(wall {1000.0 * median(raw_by_kind[kind]):.6g} ms) "
                  f"over {len(times)} rounds"
                  for kind, times in times_by_kind.items()]
        notes.append(f"median round, wall time: "
                     f"{median(rounds[False]):.6g} s; set-up, wall time: "
                     f"{median(setup_raw):.6g} s")
    return correct, attempted, failed, metrics, notes
