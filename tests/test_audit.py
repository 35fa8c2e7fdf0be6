"""Tests for the differential fuzz & invariant audit harness.

Covers the three properties ``repro.audit`` must have to be trustworthy:
case generation is a pure function of the seed, the invariant checker
actually rejects corrupted results (a checker that never fires would
make the whole harness vacuous), and a small end-to-end fuzz run over
the real miners comes back clean.
"""

import dataclasses
import re

import pytest

from repro.audit import (
    AuditCase,
    InvariantViolation,
    audit_case,
    check_topk_result,
    checks_enabled,
    generate_case,
    generate_cases,
    run_audit,
)
from repro.audit import oracle
from repro.audit.generator import MAX_ROWS, MAX_TALL_ROWS, SHAPES
from repro.core.topk_miner import mine_topk
from repro.service.cache import dataset_fingerprint


def _case_key(case):
    """Value identity of a case (datasets compare by fingerprint)."""
    return (
        case.index, case.seed, case.shape, case.consequent, case.minsup,
        case.k, dataset_fingerprint(case.dataset),
    )


class TestGeneratorDeterminism:
    def test_same_seed_same_cases(self):
        first = generate_cases(seed=7, n_cases=16)
        second = generate_cases(seed=7, n_cases=16)
        assert list(map(_case_key, first)) == list(map(_case_key, second))

    def test_different_seeds_differ(self):
        first = generate_cases(seed=7, n_cases=16)
        second = generate_cases(seed=8, n_cases=16)
        assert list(map(_case_key, first)) != list(map(_case_key, second))

    def test_case_index_is_independent_of_batch(self):
        # Case 5 must be the same whether generated alone or as part of
        # a batch — this is what makes --only-case reproduction work.
        batch = generate_cases(seed=3, n_cases=8)
        assert _case_key(generate_case(seed=3, index=5)) == _case_key(batch[5])

    def test_cases_are_well_formed(self):
        for case in generate_cases(seed=0, n_cases=len(SHAPES) * 2):
            assert isinstance(case, AuditCase)
            limit = MAX_TALL_ROWS if case.shape == "tall" else MAX_ROWS
            assert 1 <= case.dataset.n_rows <= limit
            if case.shape == "tall":
                # The point of the shape: multi-word bitsets, bounded
                # distinct patterns for the exact oracle.
                assert case.dataset.n_rows > 64
                assert len(set(case.dataset.rows)) <= 8
            assert case.shape in SHAPES
            assert 0 <= case.consequent < case.dataset.n_classes
            assert case.minsup >= 1
            assert case.k >= 1
            # Every class label referenced must actually occur.
            assert set(case.dataset.labels) == set(
                range(case.dataset.n_classes)
            )
            assert str(case.index) in case.repro_command()

    def test_shapes_rotate(self):
        shapes = [c.shape for c in generate_cases(seed=0, n_cases=len(SHAPES))]
        assert shapes == list(SHAPES)


def _mined_case():
    """A case plus its (valid) mining result, with >= 1 rule group."""
    for index in range(32):
        case = generate_case(seed=1, index=index)
        result = mine_topk(
            case.dataset, case.consequent, case.minsup, k=case.k
        )
        groups = list(result.unique_groups())
        if groups:
            return case, result
    raise AssertionError("no case with rule groups in 32 tries")


class TestInvariantChecker:
    def test_valid_result_passes(self):
        case, result = _mined_case()
        check_topk_result(case.dataset, result)

    @pytest.mark.parametrize(
        "field,delta",
        [("confidence", 0.25), ("support", 1), ("row_set", 0)],
        ids=["confidence", "support", "row_set"],
    )
    def test_corrupted_group_is_rejected(self, field, delta):
        case, result = _mined_case()
        row, groups = next(
            (row, groups)
            for row, groups in result.per_row.items()
            if groups
        )
        victim = groups[0]
        if field == "row_set":
            # Flip the covering row's bit out of the support set.
            corrupted = dataclasses.replace(
                victim, row_set=victim.row_set & ~(1 << row)
            )
        else:
            corrupted = dataclasses.replace(
                victim, **{field: getattr(victim, field) + delta}
            )
        per_row = dict(result.per_row)
        per_row[row] = [corrupted] + list(groups[1:])
        bad = dataclasses.replace(result, per_row=per_row)
        with pytest.raises(InvariantViolation):
            check_topk_result(case.dataset, bad)

    def test_unclosed_antecedent_is_rejected(self):
        for index in range(32):
            case = generate_case(seed=2, index=index)
            result = mine_topk(
                case.dataset, case.consequent, case.minsup, k=case.k
            )
            victim_row = None
            for row, groups in result.per_row.items():
                if groups and len(groups[0].antecedent) >= 2:
                    victim_row = row
                    break
            if victim_row is None:
                continue
            groups = result.per_row[victim_row]
            dropped = min(groups[0].antecedent)
            corrupted = dataclasses.replace(
                groups[0],
                antecedent=groups[0].antecedent - {dropped},
            )
            per_row = dict(result.per_row)
            per_row[victim_row] = [corrupted] + list(groups[1:])
            bad = dataclasses.replace(result, per_row=per_row)
            with pytest.raises(InvariantViolation):
                check_topk_result(case.dataset, bad)
            return
        raise AssertionError("no case with a 2-item antecedent in 32 tries")

    def test_emptied_row_is_rejected_only_when_strict(self):
        # Partial (budget-truncated) results keep a key per row but may
        # leave lists incomplete; completed results must cover every row
        # that a frequent item touches.
        case, result = _mined_case()
        row = next(row for row, groups in result.per_row.items() if groups)
        per_row = dict(result.per_row)
        per_row[row] = []
        partial = dataclasses.replace(result, per_row=per_row)
        with pytest.raises(InvariantViolation):
            check_topk_result(case.dataset, partial, strict_coverage=True)
        check_topk_result(case.dataset, partial, strict_coverage=False)

    def test_dropped_row_key_is_always_rejected(self):
        # Even partial results carry one entry per consequent-class row.
        case, result = _mined_case()
        row = next(iter(result.per_row))
        per_row = dict(result.per_row)
        del per_row[row]
        bad = dataclasses.replace(result, per_row=per_row)
        with pytest.raises(InvariantViolation):
            check_topk_result(case.dataset, bad, strict_coverage=False)

    def test_checks_enabled_follows_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert not checks_enabled()
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert not checks_enabled()
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert checks_enabled()


class TestFuzzSmoke:
    def test_quick_fuzz_run_is_clean(self):
        report = run_audit(seed=0, cases=6, quick=True, parallel_jobs=2)
        assert report.ok, "\n".join(f.render() for f in report.failures)
        assert len(report.cases) == 6
        assert report.checks_run > 0
        assert any("seed=0" in line for line in report.summary_lines())

    def test_single_case_audit_reports_no_failures(self):
        case = generate_case(seed=0, index=0)
        failures, checks_run = audit_case(case, parallel_jobs=1, quick=True)
        assert failures == []
        assert checks_run > 0

    def test_oracle_flags_a_lying_baseline(self, monkeypatch):
        # If any engine disagreed with the brute-force baseline, the
        # oracle must say so — simulate the disagreement by making the
        # baseline lie, and check the failure carries a repro command.
        case = generate_case(seed=0, index=0)
        monkeypatch.setattr(
            "repro.audit.oracle.naive_topk",
            lambda *args, **kwargs: {},
        )
        failures, _ = audit_case(case, parallel_jobs=1, quick=True)
        mismatches = [f for f in failures if f.check == "naive-vs-miner"]
        assert mismatches, "oracle did not flag the baseline mismatch"
        rendered = mismatches[0].render()
        assert "reproduce:" in rendered
        assert "audit --seed 0 --only-case 0" in rendered

    @pytest.mark.parametrize("corrupt", [
        lambda text: text.replace(", ", ",", 1),
        lambda text: text.replace('"k": ', '"k":', 1),
        lambda text: re.sub(r'"completed": (\w+), "degraded": (\w+)',
                            r'"degraded": \2, "completed": \1', text,
                            count=1),
    ], ids=["dropped-item-separator", "dropped-key-separator",
            "reordered-key"])
    def test_cache_roundtrip_flags_a_bad_splice(self, monkeypatch, corrupt):
        # The service encoder must be json.dumps of the per-slot
        # rendering byte for byte; a splice that loses a separator or
        # moves a key is a failure, not a formatting detail.
        case = generate_case(seed=0, index=0)
        encode = oracle.encode_json
        monkeypatch.setattr(
            oracle, "encode_json",
            lambda value, *args: corrupt(encode(value, *args)),
        )
        failures, _ = audit_case(case, parallel_jobs=1, quick=True)
        assert [f.check for f in failures] == ["cache-roundtrip"]
