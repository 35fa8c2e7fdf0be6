"""Synthetic gene expression workloads shaped like the paper's datasets.

The paper evaluates on four public microarray datasets (Table 1): ALL/AML
leukemia, lung cancer, ovarian cancer and prostate cancer.  Those files are
not available offline, so this module generates synthetic continuous
expression matrices with the *same shapes* (samples, genes, class splits)
and the structural properties the algorithms are sensitive to:

* a small number of rows and a very large number of columns;
* a minority of *informative* genes whose distribution depends on the
  class (these are the genes the MDL discretizer keeps);
* *co-expression blocks* — groups of genes driven by a shared latent
  factor, which discretize into items with near-identical support sets and
  hence produce the large rule groups (many lower bounds per upper bound)
  that make FARMER-style exhaustive mining explode;
* for the prostate-cancer analog, a systematic *test-set shift* on the
  top-ranked genes.  The real PC test samples came from a different lab,
  which is why single-gene-driven classifiers (the C4.5 family) collapse
  on it in the paper while rule committees survive; the shift reproduces
  that regime.

Alongside the paper-shaped "few rows, many columns" datasets, this
module also generates *tall cohorts* (:class:`TallCohortSpec`,
:func:`generate_tall_cohort`): thousands of rows over a modest item
catalog, the regime of consortium-scale sample collections rather than
single microarray studies.  Tall cohorts exist to exercise the
row-dimension scaling of the miners — their row bitsets span hundreds of
64-bit words, the regime the vectorized bitset backends
(:mod:`repro.core.backends`) are measured on — and are registered as
first-class ``repro bench`` workloads.  Construction is chunked
(:func:`iter_tall_chunks`): each chunk of rows is drawn from its own
``(seed, chunk_index)``-keyed RNG stream, so generation is one
vectorized draw per chunk (generation never bottlenecks the benchmark),
chunks can be streamed without materializing the matrix, and a cohort's
prefix is stable — growing ``n_rows`` appends rows without reshuffling
the ones already drawn.

Every generator is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .dataset import DiscretizedDataset, GeneExpressionDataset, Item

__all__ = [
    "DatasetSpec",
    "ALL_AML",
    "LUNG_CANCER",
    "OVARIAN_CANCER",
    "PROSTATE_CANCER",
    "PAPER_DATASETS",
    "TALL_COHORTS",
    "TallCohortSpec",
    "generate_dataset",
    "generate_paper_dataset",
    "generate_tall_cohort",
    "iter_tall_chunks",
    "make_figure1_example",
    "random_discretized_dataset",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Shape and structure parameters of one synthetic dataset.

    The counts mirror Table 1 of the paper; the structural knobs control
    how hard the discretized dataset is to mine.

    Attributes:
        name: short dataset code (``ALL``, ``LC``, ``OC``, ``PC``).
        class_names: display names, index 0 = class 0, index 1 = class 1.
            Class 1 is the paper's "class 1" consequent.
        n_genes: total genes in the continuous matrix.
        train_per_class: training samples per class (class0, class1).
        test_per_class: test samples per class (class0, class1).
        n_informative: genes given a class-dependent signal.
        n_blocks: number of co-expression blocks among informative genes.
        block_size: genes per block.
        effect: mean class separation, in units of the noise std.
        noise: sample noise std.
        test_shift: batch-effect strength.  The strongest
            ``shift_fraction`` of informative genes (by class separation)
            have ``test_shift`` times their train-split class separation
            *subtracted* from every test sample.  With a value around
            1.5-2 this moves class-1 test samples onto the class-0 side
            of any threshold learned on those genes while keeping class-0
            samples on their own side — the cross-lab regime of the real
            prostate-cancer test set, where single-top-gene classifiers
            misclassify every tumor sample.  0 disables.
        shift_fraction: fraction of informative genes receiving the full
            targeted flip (the top of the gain ranking).
        shift_tail_fraction: fraction of the *remaining* informative genes
            (beyond ``shift_protect_top``) that additionally receive the
            flip, drawn at random.  This broad component degrades
            weight-spreading models (SVM) while the protected band of
            strong genes keeps rule committees healthy.
        shift_protect_top: number of top-ranked genes (beyond the fully
            flipped ones) excluded from the tail shift.
        latent_noise: std of the per-sample noise on block latent
            activations; larger values make item support sets within a
            block more diverse (more distinct rule groups, longer lower
            bounds).
        missing_rate: fraction of measurements replaced by NaN (missing
            values are common in real microarray files; the discretizer
            skips them, so rows get varying item counts).
        seed: RNG seed.
    """

    name: str
    class_names: tuple[str, str]
    n_genes: int
    train_per_class: tuple[int, int]
    test_per_class: tuple[int, int]
    n_informative: int
    n_blocks: int = 24
    block_size: int = 8
    effect: float = 2.6
    noise: float = 1.0
    test_shift: float = 0.0
    shift_fraction: float = 0.3
    shift_tail_fraction: float = 0.0
    shift_protect_top: int = 50
    latent_noise: float = 0.5
    missing_rate: float = 0.0
    seed: int = 7

    def scaled(self, scale: float) -> "DatasetSpec":
        """Return a spec with gene counts scaled by ``scale`` (0 < s <= 1).

        Sample counts are preserved — the paper's datasets are "few rows,
        many columns" and the row dimension is what drives enumeration.
        """
        if not 0 < scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        n_informative = max(8, int(round(self.n_informative * scale)))
        n_blocks = max(2, int(round(self.n_blocks * scale)))
        # The batch effect must keep flipping every gene a single-gene
        # learner could root on: hold the *absolute* count of fully
        # flipped genes at >= 8 and shrink the protected band with the
        # gene dimension.
        shift_fraction = self.shift_fraction
        shift_protect_top = self.shift_protect_top
        if self.test_shift:
            shift_fraction = max(
                self.shift_fraction, min(0.15, 8.0 / n_informative)
            )
            shift_protect_top = max(
                12, int(round(self.shift_protect_top * scale))
            )
        return DatasetSpec(
            name=self.name,
            class_names=self.class_names,
            n_genes=max(n_informative * 2, int(round(self.n_genes * scale))),
            train_per_class=self.train_per_class,
            test_per_class=self.test_per_class,
            n_informative=n_informative,
            n_blocks=n_blocks,
            block_size=self.block_size,
            effect=self.effect,
            noise=self.noise,
            test_shift=self.test_shift,
            shift_fraction=shift_fraction,
            shift_tail_fraction=self.shift_tail_fraction,
            shift_protect_top=shift_protect_top,
            latent_noise=self.latent_noise,
            missing_rate=self.missing_rate,
            seed=self.seed,
        )

    @property
    def n_train(self) -> int:
        return sum(self.train_per_class)

    @property
    def n_test(self) -> int:
        return sum(self.test_per_class)


# Shapes from Table 1.  "class 1" in the paper is the first-listed label
# (ALL, MPM, tumor, tumor); we store it at class id 1.
ALL_AML = DatasetSpec(
    name="ALL",
    class_names=("AML", "ALL"),
    n_genes=7129,
    train_per_class=(11, 27),
    test_per_class=(14, 20),
    n_informative=880,
    n_blocks=30,
    block_size=9,
    seed=41,
)

LUNG_CANCER = DatasetSpec(
    name="LC",
    class_names=("ADCA", "MPM"),
    n_genes=12533,
    train_per_class=(16, 16),
    test_per_class=(134, 15),
    n_informative=2200,
    n_blocks=48,
    block_size=10,
    seed=42,
)

OVARIAN_CANCER = DatasetSpec(
    name="OC",
    class_names=("normal", "tumor"),
    n_genes=15154,
    train_per_class=(77, 133),
    test_per_class=(14, 29),
    n_informative=5800,
    n_blocks=80,
    block_size=12,
    effect=1.9,
    seed=43,
)

PROSTATE_CANCER = DatasetSpec(
    name="PC",
    class_names=("normal", "tumor"),
    n_genes=12600,
    train_per_class=(50, 52),
    test_per_class=(9, 25),
    n_informative=1570,
    n_blocks=40,
    block_size=9,
    effect=2.0,
    test_shift=1.7,
    shift_fraction=0.005,
    shift_tail_fraction=0.305,
    shift_protect_top=50,
    latent_noise=0.9,
    seed=44,
)

PAPER_DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (ALL_AML, LUNG_CANCER, OVARIAN_CANCER, PROSTATE_CANCER)
}


def _sample_matrix(
    spec: DatasetSpec,
    labels: np.ndarray,
    rng: np.random.Generator,
    base_means: np.ndarray,
    effects: np.ndarray,
    block_assignment: np.ndarray,
    block_loadings: np.ndarray,
    block_class_means: np.ndarray,
) -> np.ndarray:
    """Draw one expression matrix for the given label vector."""
    n = labels.shape[0]
    values = base_means[None, :] + rng.normal(0.0, spec.noise, size=(n, spec.n_genes))
    # Independent informative genes: additive class effect.
    values += labels[:, None] * effects[None, :]
    # Co-expression blocks: shared latent activation per sample.
    for block in range(spec.n_blocks):
        members = np.flatnonzero(block_assignment == block)
        if members.size == 0:
            continue
        latent = block_class_means[block, labels] + rng.normal(
            0.0, spec.latent_noise, size=n
        )
        values[:, members] += np.outer(latent, block_loadings[members])
    return values


def _single_split_gains(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Best single-threshold information gain of each gene (in bits).

    This is the quantity a decision stump (or the root of a C4.5 tree)
    maximizes; the batch-effect generator uses it to decide which genes a
    single-gene learner would depend on.
    """
    n, n_genes = values.shape
    base_counts = np.bincount(labels, minlength=2).astype(float)

    def _entropy_bits(counts: np.ndarray) -> np.ndarray:
        totals = counts.sum(axis=-1, keepdims=True)
        probs = counts / np.maximum(totals, 1e-12)
        logs = np.zeros_like(probs)
        positive = probs > 0
        logs[positive] = np.log2(probs[positive])
        return -(probs * logs).sum(axis=-1)

    base_entropy = float(_entropy_bits(base_counts[None, :])[0])
    gains = np.zeros(n_genes)
    for gene in range(n_genes):
        order = np.argsort(values[:, gene], kind="mergesort")
        sorted_labels = labels[order]
        ones = np.cumsum(sorted_labels)[:-1].astype(float)
        left_n = np.arange(1, n, dtype=float)
        left = np.stack([left_n - ones, ones], axis=1)
        right = base_counts[None, :] - left
        info = (left_n / n) * _entropy_bits(left) + (
            (n - left_n) / n
        ) * _entropy_bits(right)
        gains[gene] = base_entropy - info.min()
    return gains


def generate_dataset(
    spec: DatasetSpec,
) -> tuple[GeneExpressionDataset, GeneExpressionDataset]:
    """Generate (train, test) continuous datasets for ``spec``."""
    rng = np.random.default_rng(spec.seed)
    n_genes = spec.n_genes
    n_informative = min(spec.n_informative, n_genes)

    base_means = rng.normal(0.0, 1.0, size=n_genes)
    informative = rng.choice(n_genes, size=n_informative, replace=False)

    # Which informative genes belong to a block, which carry an
    # independent effect.  block_assignment[g] == -1 means no block.
    block_assignment = np.full(n_genes, -1, dtype=int)
    n_block_genes = min(spec.n_blocks * spec.block_size, n_informative)
    block_members = informative[:n_block_genes]
    for index, gene in enumerate(block_members):
        block_assignment[gene] = index % spec.n_blocks
    independent = informative[n_block_genes:]

    effects = np.zeros(n_genes)
    magnitudes = rng.gamma(shape=4.0, scale=spec.effect / 4.0, size=independent.size)
    signs = rng.choice([-1.0, 1.0], size=independent.size)
    effects[independent] = magnitudes * signs

    block_loadings = np.zeros(n_genes)
    block_loadings[block_members] = rng.uniform(0.7, 1.3, size=block_members.size)
    block_loadings[block_members] *= rng.choice([-1.0, 1.0], size=block_members.size)
    block_class_means = np.zeros((spec.n_blocks, 2))
    block_class_means[:, 1] = rng.choice([-1.0, 1.0], size=spec.n_blocks) * rng.uniform(
        spec.effect * 0.8, spec.effect * 1.2, size=spec.n_blocks
    )

    train_labels = np.concatenate(
        [np.zeros(spec.train_per_class[0], int), np.ones(spec.train_per_class[1], int)]
    )
    test_labels = np.concatenate(
        [np.zeros(spec.test_per_class[0], int), np.ones(spec.test_per_class[1], int)]
    )
    train_order = rng.permutation(train_labels.size)
    test_order = rng.permutation(test_labels.size)
    train_labels = train_labels[train_order]
    test_labels = test_labels[test_order]

    train_values = _sample_matrix(
        spec, train_labels, rng, base_means, effects,
        block_assignment, block_loadings, block_class_means,
    )
    test_values = _sample_matrix(
        spec, test_labels, rng, base_means, effects,
        block_assignment, block_loadings, block_class_means,
    )

    if spec.test_shift:
        # Batch effect on the test split, emulating the cross-lab PC test
        # set.  The genes to corrupt are the ones any single-gene learner
        # would latch onto: the top of the *empirical* information-gain
        # ranking on the training split.  Each gets its empirical class
        # separation (difference of training class means) subtracted from
        # every test sample, scaled by ``test_shift`` — class-1 test
        # samples land on the class-0 side of any threshold trained on
        # that gene while class-0 samples stay put.
        gains = _single_split_gains(train_values, train_labels)
        order = np.argsort(gains)[::-1]
        n_full = max(1, int(round(n_informative * spec.shift_fraction)))
        # Never flip more than a third of the near-perfect separators:
        # the point of the batch effect is to break single-gene learners
        # while the redundant signal rule committees rely on survives.
        near_perfect = int((gains >= 0.9 * gains[order[0]]).sum())
        n_full = min(n_full, max(1, near_perfect // 3))
        shifted = list(order[:n_full])
        if spec.shift_tail_fraction > 0:
            pool = order[n_full + spec.shift_protect_top : n_informative]
            n_tail = int(round(len(pool) * spec.shift_tail_fraction))
            if n_tail:
                shifted.extend(rng.choice(pool, size=n_tail, replace=False))
        shifted = np.asarray(shifted)
        class1 = train_labels == 1
        separation = (
            train_values[class1][:, shifted].mean(axis=0)
            - train_values[~class1][:, shifted].mean(axis=0)
        )
        test_values[:, shifted] -= spec.test_shift * separation[None, :]

    if spec.missing_rate > 0:
        for matrix in (train_values, test_values):
            mask = rng.random(matrix.shape) < spec.missing_rate
            matrix[mask] = np.nan

    gene_names = [f"{spec.name}_{i:05d}" for i in range(n_genes)]
    train = GeneExpressionDataset(
        train_values, train_labels, gene_names, list(spec.class_names),
        name=f"{spec.name}-train",
    )
    test = GeneExpressionDataset(
        test_values, test_labels, gene_names, list(spec.class_names),
        name=f"{spec.name}-test",
    )
    return train, test


def generate_paper_dataset(
    name: str, scale: float = 1.0
) -> tuple[GeneExpressionDataset, GeneExpressionDataset]:
    """Generate a paper-shaped dataset by code (``ALL``/``LC``/``OC``/``PC``).

    Args:
        name: dataset code from Table 1.
        scale: gene-count scale factor in (0, 1]; 1.0 reproduces the full
            Table 1 shapes.
    """
    try:
        spec = PAPER_DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(PAPER_DATASETS))
        raise KeyError(f"unknown dataset {name!r}; expected one of: {known}")
    if scale != 1.0:
        spec = spec.scaled(scale)
    return generate_dataset(spec)


def make_figure1_example() -> DiscretizedDataset:
    """The running example of Figure 1(a).

    Five rows over items a..p; rows 1-3 have class C (id 1) and rows 4-5
    class not-C (id 0).  Used throughout the tests to pin the paper's
    worked examples.
    """
    letters = ["a", "b", "c", "d", "e", "f", "g", "h", "o", "p"]
    ids = {letter: index for index, letter in enumerate(letters)}
    items = [
        Item(index, index, letter, float("-inf"), float("inf"))
        for index, letter in enumerate(letters)
    ]
    raw_rows = ["abcde", "abcop", "cdefg", "cdefg", "efgho"]
    rows = [frozenset(ids[ch] for ch in row) for row in raw_rows]
    labels = [1, 1, 1, 0, 0]
    return DiscretizedDataset(
        rows, labels, items, class_names=["not_C", "C"], name="figure1"
    )


@dataclass(frozen=True)
class TallCohortSpec:
    """Shape of one tall (many-rows) discretized cohort.

    The inverse regime of the paper's datasets: thousands of samples
    over a modest item catalog, as produced by pooling many studies into
    one cohort.  Structure is kept simple and fully parameterized — a
    band of *signal* items enriched in the positive class over a bed of
    class-independent noise items — so the mining workload is shaped by
    a handful of dials rather than a discretization pipeline:

    Attributes:
        name: registry/bench name (e.g. ``tall-4k``).
        n_rows: total samples.
        n_items: total items in the catalog.
        n_signal: leading items whose presence rate depends on the class.
        signal_rate_pos: P(signal item present | positive row).
        signal_rate_neg: P(signal item present | negative row).
        noise_rate: P(noise item present), class-independent.
        positive_fraction: P(row is labelled positive).
        chunk_rows: rows drawn per RNG chunk.  Part of the cohort's
            identity, not a tuning knob: each chunk is drawn from a
            ``(seed, chunk_index)``-keyed stream, so changing it
            re-deals every row.
        seed: base RNG seed.
    """

    name: str
    n_rows: int
    n_items: int = 32
    n_signal: int = 12
    signal_rate_pos: float = 0.88
    signal_rate_neg: float = 0.25
    noise_rate: float = 0.4
    positive_fraction: float = 0.55
    chunk_rows: int = 1024
    seed: int = 71

    def scaled(self, scale: float) -> "TallCohortSpec":
        """Return a spec with the row count scaled by ``scale``.

        The item catalog is preserved — rows are the dimension tall
        cohorts exist to stress.  The scaled count is floored at 96 rows
        so the bitsets always span multiple 64-bit words (the regime the
        vectorized backends are measured on).
        """
        if not 0 < scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        if scale == 1.0:
            return self
        return TallCohortSpec(
            name=self.name,
            n_rows=max(96, int(round(self.n_rows * scale))),
            n_items=self.n_items,
            n_signal=self.n_signal,
            signal_rate_pos=self.signal_rate_pos,
            signal_rate_neg=self.signal_rate_neg,
            noise_rate=self.noise_rate,
            positive_fraction=self.positive_fraction,
            chunk_rows=self.chunk_rows,
            seed=self.seed,
        )


# The committed bench tiers.  All share seed/chunk/item parameters, so
# each is a prefix of the next — the bench sweep measures pure row-count
# scaling, not a re-deal of the data.
TALL_COHORTS: dict[str, TallCohortSpec] = {
    spec.name: spec
    for spec in (
        TallCohortSpec(name="tall-1k", n_rows=1024),
        TallCohortSpec(name="tall-4k", n_rows=4096),
        TallCohortSpec(name="tall-16k", n_rows=16384),
        TallCohortSpec(name="tall-64k", n_rows=65536),
    )
}


def iter_tall_chunks(spec: TallCohortSpec):
    """Yield ``(rows, labels)`` chunks of at most ``spec.chunk_rows`` rows.

    Rows are frozensets of item ids, labels are ints.  Each chunk is one
    vectorized draw from ``np.random.default_rng((seed, chunk_index))``,
    independent of every other chunk — stream the chunks, or concatenate
    them for the full cohort.  Every row is non-empty (a row that draws
    no items keeps its first noise item).
    """
    if spec.n_rows < 1:
        raise ValueError(f"tall cohort needs n_rows >= 1, got {spec.n_rows}")
    if not 0 < spec.n_signal <= spec.n_items:
        raise ValueError(
            f"n_signal must be in 1..n_items, got {spec.n_signal} of "
            f"{spec.n_items}"
        )
    emitted = 0
    chunk_index = 0
    while emitted < spec.n_rows:
        size = min(spec.chunk_rows, spec.n_rows - emitted)
        rng = np.random.default_rng((spec.seed, chunk_index))
        # One full-width draw per chunk regardless of a short tail, so
        # the tail chunk of a small cohort equals the head of the same
        # chunk in a taller one (prefix stability).
        labels = (
            rng.random(spec.chunk_rows) < spec.positive_fraction
        ).astype(int)
        draws = rng.random((spec.chunk_rows, spec.n_items))
        thresholds = np.full((spec.chunk_rows, spec.n_items), spec.noise_rate)
        thresholds[:, : spec.n_signal] = np.where(
            labels[:, None] == 1, spec.signal_rate_pos, spec.signal_rate_neg
        )
        present = draws < thresholds
        empty = ~present.any(axis=1)
        present[empty, spec.n_signal % spec.n_items] = True
        rows = [
            frozenset(int(item) for item in np.flatnonzero(present[i]))
            for i in range(size)
        ]
        yield rows, [int(label) for label in labels[:size]]
        emitted += size
        chunk_index += 1


def generate_tall_cohort(
    spec: TallCohortSpec | str, scale: float = 1.0
) -> DiscretizedDataset:
    """Materialize a tall cohort as a :class:`DiscretizedDataset`.

    Args:
        spec: a :class:`TallCohortSpec` or a registry name from
            :data:`TALL_COHORTS` (``tall-1k``/``tall-4k``/``tall-16k``).
        scale: row-count scale factor in (0, 1], as in
            :meth:`TallCohortSpec.scaled`.
    """
    if isinstance(spec, str):
        try:
            spec = TALL_COHORTS[spec]
        except KeyError:
            known = ", ".join(sorted(TALL_COHORTS))
            raise KeyError(
                f"unknown tall cohort {spec!r}; expected one of: {known}"
            )
    if scale != 1.0:
        spec = spec.scaled(scale)
    rows: list[frozenset[int]] = []
    labels: list[int] = []
    for chunk_rows, chunk_labels in iter_tall_chunks(spec):
        rows.extend(chunk_rows)
        labels.extend(chunk_labels)
    # Guarantee both classes exist even in pathological tiny scalings.
    for class_id in (0, 1):
        if class_id not in labels:
            labels[class_id % len(labels)] = class_id
    items = [
        Item(index, index, f"t{index:03d}", float("-inf"), float("inf"))
        for index in range(spec.n_items)
    ]
    return DiscretizedDataset(
        rows, labels, items, class_names=["control", "case"], name=spec.name
    )


def random_discretized_dataset(
    n_rows: int,
    n_items: int,
    density: float = 0.4,
    n_classes: int = 2,
    seed: int = 0,
    name: str = "random",
) -> DiscretizedDataset:
    """A small random itemized dataset for tests and property checks.

    Every row is guaranteed non-empty and both classes are present
    whenever ``n_rows >= n_classes``.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        mask = rng.random(n_items) < density
        if not mask.any():
            mask[rng.integers(n_items)] = True
        rows.append(frozenset(int(i) for i in np.flatnonzero(mask)))
    labels = [int(rng.integers(n_classes)) for _ in range(n_rows)]
    for class_id in range(min(n_classes, n_rows)):
        if class_id not in labels:
            labels[class_id] = class_id
    items = [
        Item(index, index, f"i{index}", float("-inf"), float("inf"))
        for index in range(n_items)
    ]
    return DiscretizedDataset(rows, labels, items, name=name)
