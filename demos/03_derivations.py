"""Derive implied key sets with three rules and check the proofs.

The rules are Upward closure (add keys), Refinement (split a key in
two), and Composition (combine two key sets by choosing, for every pair
of their keys, a set between one component and the pair's union). Every
implied key set has a derivation; derive_keyset finds one and
check_derivation verifies it step by step. simulate_nary shows that the
n-ary form of Composition is only a convenience: binary steps suffice.
derive_keyset reads its proof off the implication search, so a proof for
an unsatisfiable 10-variable formula stays a few kilobytes long, while
the key-choice product behind it has 2**10 tuples. Replaying that proof's
n-ary step in binary steps takes one step per premise after the first, and
no key set along the way has more keys than the table has entries.

Run: python3 demos/03_derivations.py
"""

import itertools
import random

from keysets import (
    CnfFormula,
    apply_composition,
    check_derivation,
    derive_keyset,
    format_derivation,
    from_3sat,
    parse_derivation,
    parse_keyset,
    parse_schema,
    satisfiable,
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

    print("\na proof that a random 10-variable, 60-clause 3-CNF formula is unsatisfiable:")
    variables = tuple(f"x{i}" for i in range(1, 11))
    for seed in itertools.count():
        rng = random.Random(seed)
        clauses = tuple(
            frozenset((v, rng.random() < 0.5) for v in rng.sample(variables, 3)) for _ in range(60)
        )
        formula = CnfFormula(variables, clauses)
        if not satisfiable(formula):
            break
    inst = from_3sat(formula)
    proof = derive_keyset(inst.sigma, inst.phi)
    text = format_derivation(proof, inst.schema)
    entries = len(proof.steps[0].params.entries)
    print(f"  seed {seed}: {len(proof.steps)} steps, {entries} choice entries, {len(text)} bytes, "
          f"checks out: {check_derivation(parse_derivation(text)[0])}")
    # one entry per key tuple would be 2**10 entries, with refinements megabytes
    assert entries < 2**10 // 4 and len(text) < 10**6, "the proof grew back towards the product"

    # the same n-ary step, replayed with binary Compositions only
    step = proof.steps[0]
    family = tuple(inst.sigma[i] for _, i in step.refs)
    replay = simulate_nary(family, step.params.as_mapping())
    widest = max(len(s.conclusion.keys) for s in replay.steps)
    print(f"  its n-ary step in binary steps: {len(replay.steps)} steps, widest key set {widest} keys "
          f"(the table has {entries} entries), checks out: {check_derivation(replay)}")
    assert widest <= entries, "the replay outgrew the choice table"


if __name__ == "__main__":
    main()
