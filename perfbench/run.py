"""Cold-start end-to-end benchmark of the top-k rule-group system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Workloads: ``paper`` (Fig. 6 mines and Table 2 RCBT fits on Table 1
shaped cohorts), ``tall`` (direct, hybrid and spilling hybrid mines of a
tall cohort) and ``serve-mixed`` (``repro serve`` in its own process
under open-loop classify traffic and scheduled mine jobs).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a traced run.  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("paper", "tall", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    # Everything the run writes (spill files, the job store, caches the
    # program might consult) stays in a private directory of the checkout.
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    os.environ.pop("REPRO_CHECK", None)
    os.environ.pop("REPRO_BITSET_BACKEND", None)
    try:
        from common import host_facts, print_result

        facts = host_facts()
        notes = [f"host {key}: {value}" for key, value in facts.items()]
        if args.workload == "serve-mixed":
            from serve import run_serve_workload

            outcome = run_serve_workload(
                args.seed, args.seconds, bool(args.trace), scratch, ROOT)
        else:
            from batch import run_batch_workload

            outcome = run_batch_workload(
                args.workload, args.seed, args.seconds, bool(args.trace),
                scratch)
        correct, attempted, failed, metrics, workload_notes = outcome
        print_result(correct, attempted, failed, metrics,
                     notes + workload_notes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
