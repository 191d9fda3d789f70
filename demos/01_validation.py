"""Validate key sets over a table with missing values.

A key set holds a relation when every pair of distinct rows is separated
by at least one of its keys: both rows complete on that key and visibly
different there. A single missing value silently disables a key for that
pair, which is exactly what makes a *set* of keys more robust than one
primary key.

Run: python3 demos/01_validation.py
"""

import io

from keysets import (
    block_trace,
    load_csv,
    parse_keyset,
    satisfies,
    violating_blocks,
    violating_tuples_naive,
)

WARD_CSV = """\
room,name,address,injury,time
1,Miller,?,cardiac infarct,"Sunday, 19"
?,?,?,skull fracture,"Monday, 19"
2,Maier,Dresden,leg fracture,"Sunday, 16"
1,Miller,Pirna,leg fracture,"Sunday, 16"
"""


def show(relation):
    names = relation.schema.attributes
    grid = [tuple("?" if v is None else v for v in row.values) for row in relation.rows]
    width = [max(len(v) for v in col) for col in zip(names, *grid)]
    print("  " + "  ".join(n.ljust(w) for n, w in zip(names, width)))
    for cells in grid:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(cells, width)))


def main():
    ward = load_csv(io.StringIO(WARD_CSV))
    print("hospital ward admissions (? marks a missing value):")
    show(ward)

    print("\nchecking a few key sets:")
    for text in ("{{room},{time}}", "{{room,time},{injury,time}}", "{{room,time}}"):
        ks = parse_keyset(text, ward.schema)
        verdict = "holds" if satisfies(ward, ks) else "violated"
        print(f"  {text}: {verdict}")

    # The two routes must always agree: the naive route compares every
    # pair of rows, the block route sorts the rows' codes, round by round.
    ks = parse_keyset("{{room,time}}", ward.schema)
    naive = violating_tuples_naive(ward, ks)
    blocks = violating_blocks(ward, ks)
    print(f"\nall-pairs route: violating rows {sorted(naive)}")
    print(f"block route:     violating rows {sorted(blocks.row_ids)} in "
          f"{len(blocks)} maximal blocks")
    for block in sorted(sorted(b) for b in blocks):
        print(f"  rows {block} are mutually indistinguishable on every key")

    two_keys = parse_keyset("{{room,time},{injury,time}}", ward.schema)
    print("\nhow the block route narrows {{room,time},{injury,time}} down, key by key:")
    for step, state in enumerate(block_trace(ward, two_keys)):
        groups = sorted(sorted(b) for b in state)
        print(f"  after key {step + 1}: candidate blocks {groups if groups else 'none left'}")


if __name__ == "__main__":
    main()
