#!/usr/bin/env python
"""Run ``repro bench`` straight from a checkout and write BENCH_core.json.

Forwards its arguments to ``repro.cli bench`` so the bench runs without
installing the package (``python benchmarks/bench_runner.py --quick``);
every option is the CLI's, including ``--compare BASELINE``
(regression gate against a committed report) and ``--include-quick``
(fold the CI smoke workloads into a full baseline).  The
pytest-benchmark files next to this script cover paper-shape
assertions; this runner owns the serial-vs-parallel trajectory file.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main  # noqa: E402 - path bootstrap above

if __name__ == "__main__":
    raise SystemExit(main(["bench", *sys.argv[1:]]))
