"""Mining datasets with many rows: the hybrid column-then-row strategy.

Section 8 of the paper sketches how TopkRGS extends beyond microarray
shapes (few rows, many columns): partition the data column-wise first,
row-enumerate within each partition, and aggregate the per-row top-k
lists.  This example runs the hybrid miner against the direct one on the
ovarian-cancer workload (210 rows — the paper's tallest) and on a
deliberately tall synthetic dataset, and demonstrates the disk-spill
mode that bounds resident memory by the largest partition.

Run:  python examples/tall_data_mining.py
"""

import tempfile
import time

from repro.core import mine_topk, mine_topk_hybrid, relative_minsup
from repro.data import random_discretized_dataset
from repro.data.loaders import load_benchmark


def compare(dataset, consequent, minsup, k, label):
    start = time.perf_counter()
    direct = mine_topk(dataset, consequent, minsup, k=k)
    direct_seconds = time.perf_counter() - start

    start = time.perf_counter()
    hybrid = mine_topk_hybrid(dataset, consequent, minsup, k=k)
    hybrid_seconds = time.perf_counter() - start

    agree = all(
        [(g.confidence, g.support) for g in direct.per_row[row]]
        == [(g.confidence, g.support) for g in hybrid.per_row[row]]
        for row in direct.per_row
    )
    stats = hybrid.hybrid_stats
    print(f"{label}:")
    print(f"  direct: {direct_seconds:.3f}s, "
          f"{direct.stats.nodes_visited} nodes")
    print(f"  hybrid: {hybrid_seconds:.3f}s, "
          f"{hybrid.stats.nodes_visited} nodes across "
          f"{stats.n_partitions} partitions "
          f"(largest holds {stats.max_partition_rows}/{dataset.n_rows} rows)")
    print(f"  outputs identical: {agree}")
    return hybrid


def main() -> None:
    # The paper's tallest dataset: 210 ovarian-cancer samples.
    benchmark = load_benchmark("OC", scale=0.05)
    items = benchmark.train_items
    minsup = relative_minsup(items, 1, 0.8)
    compare(items, 1, minsup, k=2, label=f"OC x0.05 ({items.n_rows} rows)")

    # A synthetic tall-and-narrow dataset.
    tall = random_discretized_dataset(
        n_rows=60, n_items=14, density=0.3, seed=9, name="tall"
    )
    compare(tall, 1, minsup=3, k=2, label="synthetic 60x14")

    # Disk-spill mode: partitions are written out and read back one at a
    # time, so peak memory is one partition, not the table.  The spill
    # files live in a per-run subdirectory that the miner removes on exit.
    with tempfile.TemporaryDirectory() as spill:
        result = mine_topk_hybrid(
            tall, 1, minsup=3, k=2, spill_dir=spill
        )
        print(f"\ndisk-spill run: "
              f"{result.hybrid_stats.spilled_partitions} partitions spilled, "
              f"{len(result.covered_rows())} rows covered")


if __name__ == "__main__":
    main()
