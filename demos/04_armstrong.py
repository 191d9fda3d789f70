"""Build a relation that exhibits exactly the implied single-column key sets.

For key sets whose keys are single attributes, the implied consequences
of a family Sigma are captured by its anti-keys: the maximal attribute
sets on which two rows may still agree. Complementing the minimal
transversals of the union hypergraph yields them, and chaining one row
pair per anti-key yields an Armstrong relation: it satisfies a unary key
set if and only if Sigma implies it. No such single witness relation
exists for arbitrary key sets, only for the unary fragment.

The transversals are enumerated by MMCS, a depth-first walk that reaches
only minimal sets, so the fixed cap on their number counts the answer:
it refuses a family only when the family has more minimal transversals
than the cap.

Run: python3 demos/04_armstrong.py
"""

import itertools
import random

from keysets import (
    KeySet,
    Schema,
    anti_keys,
    format_keyset,
    generate_armstrong,
    implies_unary,
    is_armstrong_unary,
    parse_keyset,
    parse_schema,
    satisfies,
)
from keysets.armstrong import TRANSVERSAL_CAP

SCHEMA = parse_schema("room,name,address,injury,time")


def attr_names(attrs):
    return "{" + ",".join(SCHEMA.attributes[a] for a in sorted(attrs)) + "}"


def main():
    sigma = (
        parse_keyset("{{room,time},{injury,time}}", SCHEMA),
        parse_keyset("{{name,time},{injury,time}}", SCHEMA),
    )
    print("family Sigma:")
    for ks in sigma:
        print(f"  {format_keyset(ks, SCHEMA)}")

    report = anti_keys(sigma, SCHEMA)
    print("\nminimal transversals of the key unions:")
    for t in report.transversals:
        print(f"  {attr_names(t)}")
    print("anti-keys (their complements; maximal agreement sets):")
    for a in report.anti_keys:
        print(f"  {attr_names(a)}")

    rel = generate_armstrong(sigma, SCHEMA)
    print(f"\nArmstrong relation, {len(rel)} rows, consecutive rows agree on one "
          "anti-key each:")
    for row in rel.rows:
        print("  " + "  ".join(f"{v:<10}" for v in row.values))
    print(f"passes the Armstrong check: {is_armstrong_unary(rel, sigma)}")

    print("\nspot check: satisfaction on this one relation = implication from Sigma")
    for combo in (
        ("room", "time"),
        ("room", "injury", "time"),
        ("name", "injury", "time"),
        ("room", "name", "time"),
    ):
        phi = KeySet(frozenset(frozenset({SCHEMA.index(n)}) for n in combo))
        by_relation = satisfies(rel, phi)
        by_implication = implies_unary(sigma, phi)
        assert by_relation == by_implication
        keys = ",".join("{%s}" % n for n in combo)
        print(f"  {{{keys}}}: {'implied' if by_implication else 'not implied'}")

    total = sum(
        1
        for n in range(1, len(SCHEMA) + 1)
        for combo in itertools.combinations(range(len(SCHEMA)), n)
        if implies_unary(sigma, KeySet(frozenset(frozenset({a}) for a in combo)))
    )
    print(f"\nof the 31 unary key sets over this schema, {total} are implied, "
          "and the relation above separates every one of them from the rest")

    rng = random.Random(5)
    wide = Schema(tuple(f"a{i}" for i in range(24)))
    family = tuple(KeySet.of(set(rng.sample(range(24), 4))) for _ in range(30))
    count = len(anti_keys(family, wide).transversals)
    print(f"\n30 random 4-attribute keys over 24 attributes: {count} minimal transversals "
          f"(cap {TRANSVERSAL_CAP})")
    # the cap counts answers, and these 4,630 fit under 5,000
    assert count == 4630, "the transversal count changed"


if __name__ == "__main__":
    main()
