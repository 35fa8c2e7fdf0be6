"""Differential fuzzing and invariant auditing (``repro audit``).

The paper's central claims are equivalences — every enumeration engine
visits the same nodes, MineTopkRGS equals the naive top-k baseline,
hybrid and pool-worker mines are bit-identical to direct ones — so
correctness can be audited without any hand-written expected outputs.  This package
exploits that:

* :mod:`.generator` — seeded randomized datasets (skew, duplicates,
  degenerate shapes) where ``(seed, index)`` fully determines a case;
* :mod:`.invariants` — the paper-invariant catalog, importable by tests
  and run inline by the miners under ``REPRO_CHECK=1``;
* :mod:`.oracle` — the differential cross-checks for one case;
* :mod:`.runner` — orchestration and failure reports, each carrying a
  one-line reproducing command.
"""

from .generator import AuditCase, generate_case, generate_cases
from .invariants import (
    InvariantViolation,
    check_cba_order,
    check_rcbt_coverage,
    check_topk_result,
    checks_enabled,
)
from .oracle import AuditFailure, audit_case
from .runner import AuditReport, run_audit

__all__ = [
    "AuditCase",
    "AuditFailure",
    "AuditReport",
    "InvariantViolation",
    "audit_case",
    "check_cba_order",
    "check_rcbt_coverage",
    "check_topk_result",
    "checks_enabled",
    "generate_case",
    "generate_cases",
    "run_audit",
]
