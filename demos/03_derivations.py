"""Derive implied key sets with three rules and check the proofs.

The rules are Upward closure (add keys), Refinement (split a key in
two), and Composition (combine two key sets by choosing, for every pair
of their keys, a set between one component and the pair's union). Every
implied key set has a derivation; derive_keyset finds one and
check_derivation verifies it step by step. simulate_nary shows that the
n-ary form of Composition is only a convenience: binary steps suffice.

Run: python3 demos/03_derivations.py
"""

import itertools
import random

from keysets import (
    apply_composition,
    check_derivation,
    derive_keyset,
    format_derivation,
    parse_derivation,
    parse_keyset,
    parse_schema,
    simulate_nary,
)

SCHEMA = parse_schema("room,name,address,injury,time")


def main():
    x1 = parse_keyset("{{room,time},{injury,time}}", SCHEMA)
    x2 = parse_keyset("{{name,time},{injury,time}}", SCHEMA)
    goal = parse_keyset("{{room,name,time},{injury,time}}", SCHEMA)

    derivation = derive_keyset((x1, x2), goal)
    print("a machine-found derivation, in its text form:")
    text = format_derivation(derivation, SCHEMA)
    print("  " + text.replace("\n", "\n  ").rstrip())
    print(f"checks out: {check_derivation(derivation)}")

    # The text form round-trips, so proofs can be stored and re-checked.
    assert parse_derivation(text) == (derivation, SCHEMA)

    # Tampering with a step conclusion is caught immediately.
    broken = text.replace("{{room,name,time},{injury,time}}", "{{room,name,time}}", 1)
    damaged, _ = parse_derivation(broken)
    print(f"tampered copy still checks out: {check_derivation(damaged)}")

    print("\nreplaying a 3-way Composition with binary steps only:")
    rng = random.Random(5)
    family = tuple(
        parse_keyset(t, SCHEMA)
        for t in ("{{room},{time}}", "{{name,time}}", "{{injury},{address,time}}")
    )
    choice = {}
    for combo in itertools.product(*(ks.sorted_keys for ks in family)):
        union = frozenset().union(*combo)
        base = combo[rng.randrange(len(combo))]
        choice[combo] = base | frozenset(a for a in union if rng.random() < 0.3)
    direct = apply_composition(family, choice)
    replay = simulate_nary(family, choice)
    print(f"  direct n-ary result: {len(direct.keys)} keys")
    print(f"  replay: {len(replay.steps)} binary steps, same conclusion: "
          f"{replay.conclusion == direct}, checks out: {check_derivation(replay)}")


if __name__ == "__main__":
    main()
