"""repro: reproduction of "Mining Top-k Covering Rule Groups for Gene
Expression Data" (Cong, Tan, Tung, Xu -- SIGMOD 2005).

Public surface:

* :mod:`repro.core` -- MineTopkRGS, rule groups, FindLB, row enumeration;
* :mod:`repro.data` -- datasets, entropy-MDL discretization, synthetic
  paper-shaped workloads;
* :mod:`repro.baselines` -- FARMER, CHARM, CLOSET+ and brute-force
  oracles;
* :mod:`repro.classifiers` -- RCBT, CBA, IRG, C4.5 family, SVM;
* :mod:`repro.analysis` -- gene rankings and evaluation metrics;
* :mod:`repro.experiments` -- drivers regenerating every table and figure
  of the paper's evaluation section;
* :mod:`repro.service` -- embeddable serving layer (model registry,
  mining cache, job queue, classify coalescing, asyncio HTTP API;
  ``repro serve``);
* :mod:`repro.parallel` -- process-pool mining over independent units:
  FARMER row shards, hybrid partitions and one whole top-k mine per
  request (RCBT's per-class fit).  One top-k enumeration always runs in
  one process: its dynamic thresholds cannot be split across row
  shards.
"""

from .core import (
    Rule,
    RuleGroup,
    TopkResult,
    mine_topk,
    relative_minsup,
)
from .parallel import (
    mine_topk_requests,
    results_equal,
)
from .core.lower_bounds import find_lower_bounds, find_lower_bounds_batch
from .data import (
    DiscretizedDataset,
    EntropyDiscretizer,
    GeneExpressionDataset,
    generate_paper_dataset,
    load_benchmark,
    make_figure1_example,
)
from .errors import MiningBudgetExceeded, NotFittedError, ReproError
from .service import (
    JobQueue,
    MiningCache,
    ModelRegistry,
    RuleService,
    dataset_fingerprint,
)

__version__ = "1.0.0"

__all__ = [
    "DiscretizedDataset",
    "EntropyDiscretizer",
    "GeneExpressionDataset",
    "JobQueue",
    "MiningBudgetExceeded",
    "MiningCache",
    "ModelRegistry",
    "NotFittedError",
    "ReproError",
    "Rule",
    "RuleGroup",
    "RuleService",
    "TopkResult",
    "__version__",
    "dataset_fingerprint",
    "find_lower_bounds",
    "find_lower_bounds_batch",
    "generate_paper_dataset",
    "load_benchmark",
    "make_figure1_example",
    "mine_topk",
    "mine_topk_requests",
    "relative_minsup",
    "results_equal",
]
