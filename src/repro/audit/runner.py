"""Audit orchestration: generate cases, run the oracle, report.

``repro audit`` is a thin CLI wrapper over :func:`run_audit`; embed the
function directly to audit in-process (the tests do).  The contract that
makes failures actionable: every reported failure carries the exact
``repro audit --seed S --only-case I`` command that regenerates the
failing dataset and parameters, so any regression is a one-line repro.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .generator import AuditCase, generate_case, generate_cases
from .oracle import AuditFailure, audit_case

__all__ = ["AuditReport", "run_audit"]


@dataclass
class AuditReport:
    """Outcome of one audit run."""

    seed: int
    cases: list[AuditCase]
    failures: list[AuditFailure] = field(default_factory=list)
    checks_run: int = 0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list[str]:
        lines = [
            f"audit seed={self.seed}: {len(self.cases)} cases, "
            f"{self.checks_run} checks, {len(self.failures)} failures "
            f"({self.elapsed_seconds:.1f}s)"
        ]
        for failure in self.failures:
            lines.append(failure.render())
        return lines


def run_audit(
    seed: int = 0,
    cases: int = 25,
    quick: bool = False,
    only_case: Optional[int] = None,
    parallel_jobs: int = 2,
    progress: Optional[Callable[[str], None]] = None,
) -> AuditReport:
    """Fuzz ``cases`` seeded datasets through the differential oracle.

    Args:
        seed: master seed; together with a case index it fully
            determines a case.
        cases: number of cases (ignored when ``only_case`` is given).
        quick: bounded CI profile — smaller flag matrix, no classifier
            round-trips, parallel check on a few cases only.
        only_case: audit exactly this case index (the repro path).
        parallel_jobs: worker processes for the pool checks; < 2
            disables them.
        progress: optional callable receiving one line per case.

    Returns:
        An :class:`AuditReport`; ``report.ok`` is the pass/fail verdict.
    """
    if only_case is not None:
        case_list = [generate_case(seed, only_case)]
    else:
        case_list = generate_cases(seed, cases)
    report = AuditReport(seed=seed, cases=case_list)
    start = time.monotonic()
    for position, case in enumerate(case_list):
        # In quick mode, pay the process-pool spin-up only three times —
        # enough to cover the three engines via the oracle's rotation.
        case_parallel = parallel_jobs
        if quick and only_case is None and position >= 3:
            case_parallel = 1
        failures, checks = audit_case(
            case, parallel_jobs=case_parallel, quick=quick
        )
        report.failures.extend(failures)
        report.checks_run += checks
        if progress is not None:
            verdict = "ok" if not failures else f"{len(failures)} FAILURES"
            progress(f"{case.describe()} -> {verdict}")
    report.elapsed_seconds = time.monotonic() - start
    return report
