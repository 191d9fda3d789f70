"""Acceptance gate: thirteen end-to-end criteria.

Each test covers one numbered criterion; the conftest hook prints a
one-line PASS/FAIL/SKIP verdict per criterion after the run. Expected
values are frozen goldens or independently computed oracles; timing
criteria state their budgets inline.
"""

import functools
import itertools
import random
import time
from pathlib import Path

import pytest

from conftest import pair_state, random_choice_map, random_family, random_keyset, witness_refutes
from keysets import (
    BlockSet,
    CnfFormula,
    ImplicationInstance,
    IngestConfig,
    KeySet,
    Schema,
    anti_keys,
    apply_composition,
    apply_refinement,
    apply_upward_closure,
    block_trace,
    check_derivation,
    dataset_stats,
    from_3sat,
    generate_armstrong,
    implies,
    implies_bruteforce,
    implies_unary,
    is_armstrong_unary,
    load_csv,
    satisfiable,
    satisfies,
    simulate_nary,
    size_bounds,
    violating_blocks,
    violating_tuples_naive,
)
from keysets.bench import synthetic_relation

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

SCHEMA4 = Schema.of("A", "B", "C", "D")


@functools.cache
def sweep_keysets() -> tuple[KeySet, ...]:
    """All key sets over four attributes with <= 2 keys of size <= 2."""
    keys = [frozenset(c) for n in (1, 2) for c in itertools.combinations(range(4), n)]
    singles = tuple(KeySet((k,)) for k in keys)
    pairs = tuple(KeySet(pair) for pair in itertools.combinations(keys, 2))
    return singles + pairs


@functools.cache
def sweep_sigmas() -> tuple[tuple[KeySet, ...], ...]:
    """All families over sweep_keysets() with <= 2 members."""
    ks = sweep_keysets()
    return ((),) + tuple((k,) for k in ks) + tuple(itertools.combinations(ks, 2))


# --------------------------------------------------------------------------
# 1. Ward goldens, both algorithms, < 1 s.


def test_criterion_01_ward_goldens(ward, x1, x2, x_goal):
    start = time.perf_counter()
    satisfied = [KeySet.of({0}, {4}), x1, x2, x_goal]
    for ks in satisfied:
        assert satisfies(ward, ks)
        assert violating_tuples_naive(ward, ks) == frozenset()
        assert not violating_blocks(ward, ks)
    violated = KeySet.of({0, 4})
    assert not satisfies(ward, violated)
    assert violating_tuples_naive(ward, violated) == frozenset({1, 2, 3, 4})
    assert violating_blocks(ward, violated).row_ids == frozenset({1, 2, 3, 4})
    assert time.perf_counter() - start < 1.0


# --------------------------------------------------------------------------
# 2. Block refinement trace golden.


def test_criterion_02_block_trace(hospital, hospital_trace_ks):
    trace = block_trace(hospital, hospital_trace_ks)
    assert trace[0] == BlockSet((frozenset({1, 2}), frozenset({2, 3, 4})))
    assert trace[-1] == BlockSet(())
    assert not violating_blocks(hospital, hospital_trace_ks)


# --------------------------------------------------------------------------
# 3. Route agreement on 200 random relations, < 60 s.


def test_criterion_03_algorithm_agreement():
    start = time.perf_counter()
    rng = random.Random(20250803)
    outcomes = set()
    for i in range(200):
        width = rng.randint(2, 6)
        schema = Schema(tuple(f"c{j}" for j in range(width)))
        rel = synthetic_relation(
            schema, rng.randint(2, 50), 0.2, seed=i, distinct=rng.randint(1, 5)
        )
        ks = random_keyset(rng, width)
        naive = violating_tuples_naive(rel, ks)
        blocks = violating_blocks(rel, ks)
        assert blocks.row_ids == naive
        assert satisfies(rel, ks) == (not naive)
        outcomes.add(bool(naive))
    assert outcomes == {False, True}  # both verdicts actually exercised
    assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------------------
# 4. Exact decider vs brute force, witnesses machine-verified, < 120 s.


def test_criterion_04_decider_equivalence():
    start = time.perf_counter()
    for sigma in sweep_sigmas():
        for phi in sweep_keysets():
            inst = ImplicationInstance(SCHEMA4, sigma, phi)
            decision = implies(inst)
            assert decision.implied == implies_bruteforce(inst)
            if not decision.implied:
                assert decision.witness is not None
                assert witness_refutes(inst, decision.witness)
    rng = random.Random(20250804)
    schema5 = Schema.of("A", "B", "C", "D", "E")
    for _ in range(500):
        inst = ImplicationInstance(schema5, random_family(rng, 5), random_keyset(rng, 5))
        decision = implies(inst)
        assert decision.implied == implies_bruteforce(inst)
        if not decision.implied:
            assert witness_refutes(inst, decision.witness)
    assert time.perf_counter() - start < 120.0


# --------------------------------------------------------------------------
# 5. Running-example implication with verified witness.


def test_criterion_05_running_example(ward_schema, x1, x2, x_goal, phi_prime):
    implied = implies(ImplicationInstance(ward_schema, (x1, x2), x_goal))
    assert implied.implied and implied.witness is None
    refuted_inst = ImplicationInstance(ward_schema, (x1, x2), phi_prime)
    refuted = implies(refuted_inst)
    assert not refuted.implied
    assert witness_refutes(refuted_inst, refuted.witness)


# --------------------------------------------------------------------------
# 6. Unary fragment: agreement on the sweep, linear scaling in |sigma|.


def test_criterion_06_unary_fragment():
    unary = [ks for ks in sweep_keysets() if all(len(k) == 1 for k in ks.keys)]
    assert len(unary) == 10
    for sigma in sweep_sigmas():
        for phi in unary:
            expected = implies(ImplicationInstance(SCHEMA4, sigma, phi)).implied
            assert implies_unary(sigma, phi) == expected

    # Scaling: a 10x larger family must cost 5x-20x more. The members are
    # chosen so no attribute union is inside phi's, forcing a full scan.
    phi = KeySet.of({0})
    pool = [KeySet.of({i, j}) for i, j in itertools.combinations(range(1, 10), 2)]
    small = tuple(itertools.islice(itertools.cycle(pool), 3_000))
    large = tuple(itertools.islice(itertools.cycle(pool), 30_000))

    def best_time(sigma):
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            assert implies_unary(sigma, phi) is False
            times.append(time.perf_counter() - t0)
        return min(times)

    ratio = best_time(large) / best_time(small)
    assert 5.0 <= ratio <= 20.0


# --------------------------------------------------------------------------
# 7. 3-SAT reduction vs truth-table satisfiability, < 60 s.


def test_criterion_07_sat_reduction():
    start = time.perf_counter()
    rng = random.Random(20250807)
    names = tuple(f"x{i}" for i in range(1, 7))
    outcomes = set()
    for case in range(100):
        # half the draws use few variables and many clauses so both
        # satisfiable and unsatisfiable formulas occur
        nvars = rng.randint(1, 3) if case % 2 else rng.randint(1, 6)
        nclauses = rng.randint(5, 10) if case % 2 else rng.randint(1, 10)
        variables = names[:nvars]
        clauses = []
        for _ in range(nclauses):
            chosen = rng.sample(variables, rng.randint(1, min(3, nvars)))
            clauses.append(frozenset((v, rng.random() < 0.5) for v in chosen))
        formula = CnfFormula(variables, tuple(clauses))
        expected = not satisfiable(formula)
        assert implies(from_3sat(formula)).implied == expected
        outcomes.add(expected)
    assert outcomes == {False, True}
    assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------------------
# 8. Rule soundness over the sweep; n-ary simulation contract.


def test_criterion_08_rules_sound_and_simulated():
    rng = random.Random(20250808)
    checked = 0
    for sigma in sweep_sigmas():
        if not sigma:
            continue
        conclusions = [apply_upward_closure(sigma[0], sigma[-1])]
        first = sigma[0]
        splittable = [k for k in first.sorted_keys if len(k) > 1]
        if splittable:
            target = splittable[0]
            left = frozenset({min(target)})
            conclusions.append(apply_refinement(first, target, left, target - left))
        if len(sigma) == 2:
            conclusions.append(apply_composition(sigma, random_choice_map(rng, sigma)))
        for phi in conclusions:
            assert implies(ImplicationInstance(SCHEMA4, sigma, phi)).implied
            checked += 1
    assert checked > 3000

    for _ in range(150):
        n = rng.randint(1, 3)
        family = tuple(random_keyset(rng, 4, max_keys=2, max_key_size=2) for _ in range(n))
        choice = random_choice_map(rng, family)
        result = apply_composition(family, choice)
        derivation = simulate_nary(family, choice)
        assert check_derivation(derivation)
        assert derivation.premises == family
        assert derivation.conclusion == result
        key_pool = set().union(*(ks.keys for ks in family))
        assert len(derivation.steps) <= (n + 1) * len(key_pool) + 1


# --------------------------------------------------------------------------
# 9. Armstrong golden case for the Ward family, < 5 s.


def test_criterion_09_armstrong_golden(ward_schema, x1, x2):
    start = time.perf_counter()
    report = anti_keys((x1, x2), ward_schema)
    assert report.anti_keys == (
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2, 4}),
        frozenset({2, 3, 4}),
    )
    rel = generate_armstrong((x1, x2), ward_schema)
    assert len(rel) == 4
    assert all(v is not None for row in rel.rows for v in row.values)
    assert is_armstrong_unary(rel, (x1, x2))
    for n in range(1, 6):
        for combo in itertools.combinations(range(5), n):
            phi = KeySet(frozenset(frozenset({a}) for a in combo))
            assert satisfies(rel, phi) == implies_unary((x1, x2), phi)
    assert time.perf_counter() - start < 5.0


# --------------------------------------------------------------------------
# 10. Armstrong construction on random families; size bound consistency.


def test_criterion_10_armstrong_random():
    rng = random.Random(20250810)
    for _ in range(100):
        width = rng.randint(1, 6)
        schema = Schema(tuple(f"c{j}" for j in range(width)))
        family = random_family(rng, width)
        report = anti_keys(family, schema)
        rel = generate_armstrong(family, schema)
        assert is_armstrong_unary(rel, family)
        assert len(rel) <= len(report.anti_keys) + 1
        for n in range(1, width + 1):
            for combo in itertools.combinations(range(width), n):
                phi = KeySet(frozenset(frozenset({a}) for a in combo))
                assert satisfies(rel, phi) == implies_unary(family, phi)
    for a in range(1, 101):
        lower, upper = size_bounds(a)
        assert upper == a + 1
        assert a + 1 <= lower * lower


# --------------------------------------------------------------------------
# 11. No-Armstrong fixture: two relations force conflicting witnesses.


def test_criterion_11_no_armstrong_fixture(
    abcd_schema, sigma_abcd, sigma1, sigma2, left1, left2, union_rel
):
    for rel, refuted in ((left1, sigma1), (left2, sigma2)):
        assert all(satisfies(rel, ks) for ks in sigma_abcd)
        assert not satisfies(rel, refuted)
    assert not all(satisfies(union_rel, ks) for ks in sigma_abcd)
    for phi in (sigma1, sigma2):
        inst = ImplicationInstance(abcd_schema, sigma_abcd, phi)
        decision = implies(inst)
        assert not decision.implied
        assert witness_refutes(inst, decision.witness)


# --------------------------------------------------------------------------
# 12. Scaling shape: linear route doubles with rows, beats naive by >= 5x.


def test_criterion_12_scaling_shape():
    schema = Schema.of(*"abcdef")
    ks = KeySet.of({0, 1}, {2, 3})
    r10k = synthetic_relation(schema, 10_000, 0.2, seed=7, distinct=2)
    r20k = synthetic_relation(schema, 20_000, 0.2, seed=7, distinct=2)
    assert violating_blocks(r10k, ks).row_ids == violating_tuples_naive(r10k, ks)

    def mean_time(fn, rel, reps):
        fn(rel, ks)  # warm-up
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(rel, ks)
            times.append(time.perf_counter() - t0)
        return sum(times) / reps

    linear_10 = mean_time(violating_blocks, r10k, reps=3)
    linear_20 = mean_time(violating_blocks, r20k, reps=3)
    naive_10 = mean_time(violating_tuples_naive, r10k, reps=2)
    assert 1.5 <= linear_20 / linear_10 <= 3.0
    assert naive_10 / linear_10 >= 5.0


# --------------------------------------------------------------------------
# 13. Published dataset statistics (skipped when the CSVs are absent).


@pytest.mark.parametrize(
    "name, expected",
    [("bridges.csv", (108, 13, 77)), ("hepatitis.csv", (155, 20, 167))],
    ids=["bridges", "hepatitis"],
)
def test_criterion_13_dataset_stats(name, expected):
    path = DATA_DIR / name
    if not path.exists():
        pytest.skip(f"data/{name} not present; download the UCI file to enable this check")
    rel = load_csv(path, IngestConfig(null_tokens=("?",), has_header=False))
    stats = dataset_stats(rel)
    assert (stats.rows, stats.cols, stats.nulls) == expected
