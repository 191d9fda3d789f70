"""Compare the two validation routes on synthetic data.

The all-pairs route is quadratic in rows; the block-refinement route
sorts the rows' integer codes once per round, where a round is one key
with missing cells or a group of complete columns. This script times
both on generated relations and prints the standard report table. Sizes
are kept small so the demo runs in a few seconds; bump ROWS to see the
gap widen.

Run: python3 demos/05_benchmark.py
"""

from keysets import Schema
from keysets.bench import (
    format_table,
    gen_sequential_keysets,
    run_bench,
    synthetic_relation,
    violation_percentage,
)

ROWS = 4_000


def main():
    schema = Schema.of("a", "b", "c", "d", "e", "f")
    relation = synthetic_relation(schema, ROWS, null_rate=0.2, seed=11, distinct=2)

    keysets = gen_sequential_keysets(schema)[:3]
    print(f"synthetic relation: {ROWS} rows x {len(schema)} columns, 20% missing")
    print(f"  fraction of the key sets violated: "
          f"{violation_percentage(relation, keysets):.0%}")

    reports = []
    for algo in ("naive", "linear"):
        reports += run_bench(relation, keysets, algo=algo, repeats=3, dataset="synthetic")
    print()
    print(format_table(reports))

    naive = {r.keyset: r.mean_ms for r in reports if r.algo == "naive"}
    linear = {r.keyset: r.mean_ms for r in reports if r.algo == "linear"}
    print("\nspeedup of the block route over all-pairs:")
    for label in naive:
        print(f"  {label}: {naive[label] / linear[label]:.1f}x")


if __name__ == "__main__":
    main()
