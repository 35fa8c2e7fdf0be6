"""Experiment drivers: one module per table/figure of the paper.

Run from the command line::

    python -m repro.experiments table1
    python -m repro.experiments table2 --details
    python -m repro.experiments fig6 --scale 0.1
    python -m repro.experiments fig7
    python -m repro.experiments fig8
    python -m repro.experiments ablations --scale 0.25
    python -m repro.experiments report --scale 0.1 --output REPORT.md
"""

from . import ablations, fig6, fig7, fig8, report, table1, table2
from .harness import DATASET_NAMES, prepare, render_table

__all__ = [
    "DATASET_NAMES",
    "ablations",
    "fig6",
    "fig7",
    "fig8",
    "prepare",
    "render_table",
    "report",
    "table1",
    "table2",
]
