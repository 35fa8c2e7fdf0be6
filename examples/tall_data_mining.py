"""Mining datasets with many rows: column enumeration and the hybrid miner.

The paper enumerates rows because microarray data has few rows and many
columns.  Tall data is the reverse case, and two routes serve it.  When
the frequent items are few, their closed itemsets are few (at most
``2**f`` for ``f`` items), and every top-k rule group is one of them:
``strategy="auto"`` then plans a column walk of the closed sets (the
CHARM walk of the paper's Fig. 6 comparison).  Section 8 of the paper
sketches the other route: partition the data column-wise first, switch
to row enumeration within each partition, and aggregate the per-row
top-k lists.  Here each partition plans its own walk by the same rule:
the column walk where the partition's frequent items are few for its
rows, the row walk elsewhere.  This example runs direct, hybrid and
auto side by side on the ovarian-cancer workload (210 rows, the
paper's tallest), on a synthetic tall cohort, and on a sparse random
table; the hybrid line counts the partitions that took the column
walk.  Each hybrid partition is read from the data when it is mined,
so the largest partition, not the table, bounds what one partition
mine holds; the hybrid line prints it against the matrix.  All three
routes return the same lists, bit for bit.

Run:  python examples/tall_data_mining.py
"""

import time

from repro.core import mine_topk, mine_topk_hybrid, relative_minsup
from repro.data import random_discretized_dataset
from repro.data.loaders import load_benchmark
from repro.data.synthetic import TALL_COHORTS, generate_tall_cohort


def timed(mine):
    start = time.perf_counter()
    result = mine()
    return result, time.perf_counter() - start


def compare(dataset, consequent, minsup, k, label):
    direct, direct_seconds = timed(
        lambda: mine_topk(dataset, consequent, minsup, k=k))
    hybrid, hybrid_seconds = timed(
        lambda: mine_topk_hybrid(dataset, consequent, minsup, k=k))
    auto, auto_seconds = timed(
        lambda: mine_topk(dataset, consequent, minsup, k=k, strategy="auto"))

    stats = hybrid.hybrid_stats
    planned = auto.stats.plan
    print(f"{label}:")
    print(f"  direct: {direct_seconds:.3f}s, "
          f"{direct.stats.nodes_visited} nodes")
    print(f"  hybrid: {hybrid_seconds:.3f}s, "
          f"{hybrid.stats.nodes_visited} nodes across "
          f"{stats.n_partitions} partitions ({stats.column_partitions} "
          f"on the column walk; largest holds "
          f"{stats.max_partition_rows}/{dataset.n_rows} rows, "
          f"{stats.peak_resident_cells}/{stats.total_cells} matrix cells)")
    print(f"  auto:   {auto_seconds:.3f}s, plans {planned.strategy} "
          f"({planned.frequent_items} frequent items), "
          f"{auto.stats.nodes_visited} nodes")
    # Rule groups compare by value, so equal lists are bit-identical.
    agree = direct.per_row == hybrid.per_row == auto.per_row
    print(f"  outputs identical: {agree}")


def main() -> None:
    # The paper's tallest dataset: 210 ovarian-cancer samples.
    benchmark = load_benchmark("OC", scale=0.05)
    items = benchmark.train_items
    minsup = relative_minsup(items, 1, 0.8)
    compare(items, 1, minsup, k=2, label=f"OC x0.05 ({items.n_rows} rows)")

    # A synthetic tall cohort: 256 rows with 12 frequent items, whose
    # few closed sets the column walk finds in a few hundred nodes.
    cohort = generate_tall_cohort(TALL_COHORTS["tall-1k"].scaled(0.25))
    compare(cohort, 1, relative_minsup(cohort, 1, 0.7), k=2,
            label=f"tall-1k cohort ({cohort.n_rows} rows)")

    # A sparse tall-and-narrow table.
    tall = random_discretized_dataset(
        n_rows=60, n_items=14, density=0.3, seed=9, name="tall"
    )
    compare(tall, 1, minsup=3, k=2, label="synthetic 60x14")


if __name__ == "__main__":
    main()
