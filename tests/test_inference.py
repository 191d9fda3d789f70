"""Rule system tests.

Soundness is checked by replaying rule outputs through the implication
decider; completeness by deriving every implied key set in a small
exhaustive universe. Derivations are also pushed through the text form
and back, including attribute names that collide with the format's own
separators.
"""

import itertools
import random
import time

import pytest
from conftest import (
    UNSAT_15,
    pair_c_instance,
    random_choice_map,
    random_family,
    random_prefix_table,
    reference_apply_composition,
    reference_simulate_nary,
)
from hypothesis import given
from hypothesis import strategies as st

from keysets import (
    Derivation,
    DerivationStep,
    ImplicationInstance,
    KeySet,
    ParseError,
    ResourceLimit,
    RuleError,
    Schema,
    apply_composition,
    apply_refinement,
    apply_upward_closure,
    check_derivation,
    derive_keyset,
    first_invalid_step,
    format_derivation,
    implies,
    parse_derivation,
    simulate_nary,
)
from keysets import implication
from keysets.implication import CnfFormula, from_3sat, implies_bruteforce, parse_dimacs, satisfiable
from keysets.implication import CHOICE_CAP
from keysets.inference import (
    RULE_COMPOSITION,
    RULE_NARY,
    RULE_REFINEMENT,
    RULE_UPWARD,
    CompositionParams,
    RefinementParams,
    UpwardClosureParams,
)

A, B, C, D = (frozenset({i}) for i in range(4))


def composition_choice(x1: KeySet, x2: KeySet, zs) -> dict:
    """Choice table for the canonical key-pair order."""
    combos = list(itertools.product(x1.sorted_keys, x2.sorted_keys))
    return dict(zip(combos, zs, strict=True))


# --------------------------------------------------------------------------
# Single rules.


def test_upward_closure(x1):
    out = apply_upward_closure(x1, KeySet.of({2}))
    assert out.keys == x1.keys | {frozenset({2})}


def test_refinement_golden(x_goal, x1, x2):
    target = frozenset({0, 1, 4})
    out = apply_refinement(x_goal, target, frozenset({0, 4}), frozenset({1, 4}))
    assert out == KeySet.of({0, 4}, {1, 4}, {3, 4})


def test_refinement_allows_overlap_and_identity():
    ks = KeySet.of({0, 1})
    assert apply_refinement(ks, frozenset({0, 1}), frozenset({0, 1}), frozenset({1})) == KeySet.of(
        {0, 1}, {1}
    )


def test_refinement_side_conditions():
    ks = KeySet.of({0, 1})
    with pytest.raises(RuleError, match="not a key"):
        apply_refinement(ks, frozenset({0}), frozenset({0}), frozenset({0}))
    with pytest.raises(RuleError, match="non-empty"):
        apply_refinement(ks, frozenset({0, 1}), frozenset(), frozenset({0, 1}))
    with pytest.raises(RuleError, match="union to the target"):
        apply_refinement(ks, frozenset({0, 1}), frozenset({0}), frozenset({0}))


def test_composition_golden(x1, x2, x_goal):
    # the running example: {x1, x2} composes straight into the goal
    choice = composition_choice(
        x1, x2, (frozenset({0, 1, 4}), frozenset({3, 4}), frozenset({3, 4}), frozenset({3, 4}))
    )
    assert apply_composition((x1, x2), choice) == x_goal


def test_composition_all_unions():
    x1, x2 = KeySet.of(A, B), KeySet.of(C, D)
    choice = {(k1, k2): k1 | k2 for k1 in x1.sorted_keys for k2 in x2.sorted_keys}
    assert apply_composition((x1, x2), choice) == KeySet.of(A | C, A | D, B | C, B | D)


def test_composition_side_conditions():
    x1, x2 = KeySet.of(A, B), KeySet.of(C)
    with pytest.raises(RuleError, match="no entry for key tuple"):
        apply_composition((x1, x2), {(A, C): A | C})
    with pytest.raises(RuleError, match="escapes the key union"):
        apply_composition((x1, x2), {(A, C): A | D, (B, C): B | C})
    with pytest.raises(RuleError, match="no component key is contained"):
        apply_composition((x1, x2), {(A, C): frozenset(), (B, C): B | C})


def test_composition_chosen_set_may_be_partial_union():
    x1, x2 = KeySet.of(A | B), KeySet.of(C)
    out = apply_composition((x1, x2), {(A | B, C): A | C})  # contains C, drops B
    assert out == KeySet.of(A | C)


def test_nary_composition_unary_family():
    ks = KeySet.of(A, B | C)
    identity = {(k,): k for k in ks.sorted_keys}
    assert apply_composition((ks,), identity) == ks
    with pytest.raises(RuleError, match="no component key"):
        apply_composition((ks,), {(A,): A, (B | C,): B})


def test_nary_composition_needs_premises():
    with pytest.raises(RuleError, match="at least one premise"):
        apply_composition((), {})


def test_nary_composition_three_premises():
    family = (KeySet.of(A, B), KeySet.of(C), KeySet.of(D))
    choice = {combo: frozenset().union(*combo) for combo in itertools.product(*family)}
    assert apply_composition(family, choice) == KeySet.of(A | C | D, B | C | D)


def test_composition_entry_may_stop_early():
    # {A} begins both tuples, so one entry inside A's union covers them
    x1, x2 = KeySet.of(A, B), KeySet.of(C, D)
    out = apply_composition((x1, x2), {(A,): A, (B, C): B | C, (B, D): B})
    assert out == KeySet.of(A, B | C, B)
    with pytest.raises(RuleError, match="escapes the key union"):
        apply_composition((x1, x2), {(A,): A | C, (B,): B})


def test_composition_rejects_keys_outside_the_premises():
    x1, x2 = KeySet.of(A, B), KeySet.of(C)
    full = {(A, C): A, (B, C): B}
    for junk in ((C, A), (A, B), (A, C, D), ()):
        with pytest.raises(RuleError, match="not drawn from the premises"):
            apply_composition((x1, x2), {**full, junk: A})
    with pytest.raises(RuleError, match="extends another entry"):
        apply_composition((x1, x2), {**full, (A,): A})


def test_prefix_tables_match_the_product_walk():
    rng = random.Random(20261018)
    schema = Schema.of(*"abcde")
    for _ in range(300):
        family = random_family(rng, 5, max_members=4)
        table = random_prefix_table(rng, family)
        full = {}
        for combo in itertools.product(*(ks.sorted_keys for ks in family)):
            begins = [combo[:k] for k in range(1, len(combo) + 1) if combo[:k] in table]
            assert len(begins) == 1
            full[combo] = table[begins[0]]
        out = apply_composition(family, table)
        assert out == reference_apply_composition(family, full)
        assert implies_bruteforce(ImplicationInstance(schema, family, out))
        gap = dict(table)
        del gap[rng.choice(list(table))]
        with pytest.raises(RuleError, match="no entry for key tuple"):
            apply_composition(family, gap)
        combo = rng.choice(list(table))
        if len(combo) < len(family):
            overlap = {**table, (*combo, family[len(combo)].sorted_keys[0]): combo[0]}
        elif len(combo) > 1:
            overlap = {**table, combo[:-1]: combo[0]}
        else:
            continue
        with pytest.raises(RuleError, match="extends another entry"):
            apply_composition(family, overlap)


# --------------------------------------------------------------------------
# Soundness: rule outputs are implied by their inputs.


@given(st.data())
def test_rule_outputs_are_implied(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    schema = Schema.of(*"abcde")
    n = rng.randint(1, 3)
    family = []
    for _ in range(n):
        keys = frozenset(
            frozenset(rng.sample(range(5), rng.randint(1, 2))) for _ in range(rng.randint(1, 2))
        )
        family.append(KeySet(keys))
    out = apply_composition(family, random_choice_map(rng, family))
    assert implies(ImplicationInstance(schema, tuple(family), out)).implied


# --------------------------------------------------------------------------
# Derivation checking.


def test_check_derivation_running_example(x1, x2, x_goal):
    choice = composition_choice(
        x1, x2, (frozenset({0, 1, 4}), frozenset({3, 4}), frozenset({3, 4}), frozenset({3, 4}))
    )
    step = DerivationStep(
        RULE_COMPOSITION,
        (("p", 0), ("p", 1)),
        CompositionParams(tuple(choice.items())),
        x_goal,
    )
    d = Derivation((x1, x2), (step,), x_goal)
    assert check_derivation(d)
    assert first_invalid_step(d) is None
    # the same table with one tuple listed twice, the second time with the
    # same chosen set, is still rejected
    combo, chosen = next(iter(choice.items()))
    twice = CompositionParams((*choice.items(), (combo, chosen)))
    d = Derivation((x1, x2), (DerivationStep(RULE_COMPOSITION, step.refs, twice, x_goal),), x_goal)
    assert first_invalid_step(d) == 0


def test_premise_citation_is_valid(x1):
    assert check_derivation(Derivation((x1,), (), x1))


def test_unsupported_conclusion(x1, x2):
    d = Derivation((x1,), (), x2)
    assert first_invalid_step(d) == 0
    assert not check_derivation(d)


def test_conclusion_must_match_last_step(x1):
    step = DerivationStep(
        RULE_UPWARD, (("p", 0),), UpwardClosureParams(KeySet.of({2})), apply_upward_closure(x1, KeySet.of({2}))
    )
    d = Derivation((x1,), (step,), KeySet.of({2}))
    assert first_invalid_step(d) == 1  # the step is fine, the conclusion is not


def test_wrong_step_conclusion_detected(x1):
    step = DerivationStep(RULE_UPWARD, (("p", 0),), UpwardClosureParams(KeySet.of({2})), x1)
    assert first_invalid_step(Derivation((x1,), (step,), x1)) == 0


@pytest.mark.parametrize(
    "refs",
    [
        (("p", 5),),  # premise out of range
        (("s", 0),),  # forward self reference
        (("q", 0),),  # unknown kind
    ],
)
def test_bad_references_detected(x1, refs):
    step = DerivationStep(RULE_UPWARD, refs, UpwardClosureParams(KeySet.of({2})), x1)
    assert first_invalid_step(Derivation((x1,), (step,), x1)) == 0


def test_arity_violations_detected(x1, x2):
    bad_upward = DerivationStep(
        RULE_UPWARD, (("p", 0), ("p", 1)), UpwardClosureParams(x2), x1
    )
    assert first_invalid_step(Derivation((x1, x2), (bad_upward,), x1)) == 0
    bad_comp = DerivationStep(RULE_COMPOSITION, (("p", 0),), CompositionParams(()), x1)
    assert first_invalid_step(Derivation((x1,), (bad_comp,), x1)) == 0
    unknown = DerivationStep("Weakening", (("p", 0),), UpwardClosureParams(x2), x1)
    assert first_invalid_step(Derivation((x1,), (unknown,), x1)) == 0
    # a split that one input would allow
    target = x1.sorted_keys[0]
    left = frozenset({min(target)})
    split = apply_refinement(x1, target, left, target - left)
    two_refined = DerivationStep(
        RULE_REFINEMENT, (("p", 0), ("p", 1)), RefinementParams(target, left, target - left), split
    )
    assert first_invalid_step(Derivation((x1, x2), (two_refined,), split)) == 0
    empty_nary = DerivationStep(RULE_NARY, (), CompositionParams(()), x1)
    assert first_invalid_step(Derivation((x1,), (empty_nary,), x1)) == 0


def test_later_steps_checked_after_valid_prefix(x1):
    grow = apply_upward_closure(x1, KeySet.of({2}))
    ok = DerivationStep(RULE_UPWARD, (("p", 0),), UpwardClosureParams(KeySet.of({2})), grow)
    bad = DerivationStep(
        RULE_REFINEMENT,
        (("s", 0),),
        RefinementParams(frozenset({9}), frozenset({9}), frozenset({9})),
        grow,
    )
    assert first_invalid_step(Derivation((x1,), (ok, bad), grow)) == 1


# --------------------------------------------------------------------------
# Simulating n-ary composition with binary steps.


# An unsatisfiable 3-CNF formula over 5 variables.
UNSAT_5 = """\
p cnf 5 20
3 -4 5 0 -2 -3 4 0 -1 -2 3 0 -1 2 -3 0 -1 3 4 0 1 2 -5 0 -2 3 4 0 -1 2 3 0 -2 -4 -5 0
1 -2 -3 0 1 3 4 0 1 -2 5 0 1 2 -3 0 1 2 5 0 3 -4 5 0 2 -3 -5 0 -2 4 5 0 -1 -2 5 0
-1 -4 -5 0 -1 -2 -5 0
"""


def test_simulate_replays_a_derived_prefix_table():
    inst = from_3sat(parse_dimacs(UNSAT_5))
    step = derive_keyset(inst.sigma, inst.phi).steps[0]
    family = tuple(inst.sigma[i] for _, i in step.refs)
    assert min(len(combo) for combo, _ in step.params.entries) < len(family)
    d = simulate_nary(family, step.params.as_mapping())
    assert check_derivation(d)
    assert d.conclusion == step.conclusion


def derived_table(formula: CnfFormula):
    """The premises and choice table of the n-ary Composition that
    ``derive_keyset`` builds for an unsatisfiable formula."""
    inst = from_3sat(formula)
    step = derive_keyset(inst.sigma, inst.phi).steps[0]
    return tuple(inst.sigma[i] for _, i in step.refs), step.params.as_mapping()


def test_simulate_replay_counts_on_a_derived_prefix_table():
    # folding to every key tuple's union, then rounds per union, took 19
    # Compositions and a widest key set of 32
    d = simulate_nary(*derived_table(parse_dimacs(UNSAT_5)))
    rules = [s.rule for s in d.steps]
    assert (rules.count(RULE_COMPOSITION), rules.count(RULE_UPWARD)) == (4, 0)
    assert max(len(s.conclusion.keys) for s in d.steps) == 13


def test_simulate_pair_cap(monkeypatch):
    # the replay's widest binary step has 20 key pairs
    family, table = derived_table(parse_dimacs(UNSAT_5))
    monkeypatch.setattr(implication, "CHOICE_CAP", 19)
    with pytest.raises(ResourceLimit) as err:
        simulate_nary(family, table)
    assert (err.value.limit, err.value.size, err.value.cap) == ("binary composition pairs", 20, 19)
    monkeypatch.setattr(implication, "CHOICE_CAP", 20)
    assert check_derivation(simulate_nary(family, table))


def test_simulate_unsat_15_within_the_table():
    # 15 premises of two keys each: the key-choice product has 32,768 tuples
    family, table = derived_table(parse_dimacs(UNSAT_15))
    started = time.perf_counter()
    d = simulate_nary(family, table)
    assert time.perf_counter() - started < 1.0
    assert check_derivation(d)
    assert d.conclusion == apply_composition(family, table)
    rules = [s.rule for s in d.steps]
    assert (rules.count(RULE_COMPOSITION), rules.count(RULE_UPWARD)) == (14, 0)
    assert (len(table), max(len(s.conclusion.keys) for s in d.steps)) == (791, 166)
    assert sum(len(s.params.entries) for s in d.steps) == 1_744


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CnfFormula:
    variables = tuple(f"x{i}" for i in range(1, num_vars + 1))
    clauses = (frozenset((v, rng.random() < 0.5) for v in rng.sample(variables, 3)) for _ in range(num_clauses))
    return CnfFormula(variables, tuple(clauses))


def test_simulate_derived_tables_stay_within_their_entries():
    """Seven unsatisfiable random formulas per size, 4 to 11 variables at
    six clauses per variable: every chosen set holds its entry's last
    key, so the replay takes n - 1 Compositions and no key set outgrows
    the table."""
    rng = random.Random(20261019)
    checked = 0
    for num_vars in range(4, 12):
        found = 0
        while found < 7:
            formula = random_3cnf(rng, num_vars, 6 * num_vars)
            if satisfiable(formula):
                continue
            found += 1
            family, table = derived_table(formula)
            assert all(combo[-1] <= chosen for combo, chosen in table.items())
            d = simulate_nary(family, table)
            assert check_derivation(d)
            assert d.conclusion == apply_composition(family, table)
            assert [s.rule for s in d.steps] == [RULE_COMPOSITION] * (len(family) - 1)
            assert max(len(s.conclusion.keys) for s in d.steps) <= len(table)
            checked += 1
    assert checked == 56


def test_simulate_missing_entry_is_a_rule_error():
    family = (KeySet.of(A, B), KeySet.of(C), KeySet.of(D))
    with pytest.raises(RuleError, match="no entry for key tuple"):
        simulate_nary(family, {(B,): B})


def test_simulate_single_premise():
    ks = KeySet.of(A, B | C)
    d = simulate_nary((ks,), {(k,): k for k in ks.sorted_keys})
    assert d.steps == ()
    assert d.conclusion == ks
    assert check_derivation(d)


def test_simulate_two_premises(x1, x2, x_goal):
    choice = composition_choice(
        x1, x2, (frozenset({0, 1, 4}), frozenset({3, 4}), frozenset({3, 4}), frozenset({3, 4}))
    )
    d = simulate_nary((x1, x2), choice)
    assert [s.rule for s in d.steps] == [RULE_COMPOSITION]
    assert d.conclusion == x_goal
    assert check_derivation(d)


def test_simulate_three_premises_golden():
    family = (KeySet.of(A, B), KeySet.of(C), KeySet.of(D))
    choice = {combo: frozenset().union(*combo) for combo in itertools.product(*family)}
    d = simulate_nary(family, choice)
    assert check_derivation(d)
    assert d.conclusion == apply_composition(family, choice)
    rules = [s.rule for s in d.steps]
    assert set(rules) <= {RULE_COMPOSITION, RULE_UPWARD}
    assert rules.count(RULE_UPWARD) <= 1
    union_keys = len(set().union(*(ks.keys for ks in family)))
    assert rules.count(RULE_COMPOSITION) <= (len(family) + 1) * union_keys


@given(st.data())
def test_simulate_matches_nary_on_random_choices(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    n = rng.randint(2, 3)
    family = tuple(
        KeySet(
            frozenset(
                frozenset(rng.sample(range(5), rng.randint(1, 2)))
                for _ in range(rng.randint(1, 3))
            )
        )
        for _ in range(n)
    )
    choice = random_choice_map(rng, family)
    d = simulate_nary(family, choice)
    assert check_derivation(d)
    assert d.conclusion == apply_composition(family, choice)
    rules = [s.rule for s in d.steps]
    assert all(r == RULE_COMPOSITION for r in rules[:-1])
    assert rules[-1] in (RULE_COMPOSITION, RULE_UPWARD)
    union_keys = len(set().union(*(ks.keys for ks in family)))
    assert rules.count(RULE_COMPOSITION) <= (n + 1) * union_keys


@given(st.data())
def test_simulate_matches_nary_on_random_prefix_tables(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    family = random_family(rng, 5, max_members=5, min_members=3)
    table = random_prefix_table(rng, family)
    d = simulate_nary(family, table)
    target = apply_composition(family, table)
    assert check_derivation(d)
    assert d.conclusion == target
    compositions = [s for s in d.steps if s.rule == RULE_COMPOSITION]
    n, pool = len(family), len(set().union(*(ks.keys for ks in family)))
    assert 1 <= len(compositions) <= (n - 1) + n * pool
    # the union rule's replay takes at least as many steps, and at each
    # one holds every key outside T that this replay holds
    reference = [s for s in reference_simulate_nary(family, table).steps if s.rule == RULE_COMPOSITION]
    assert len(compositions) <= len(reference)
    for step, ref in zip(compositions, reference):
        assert step.conclusion.keys - target.keys <= ref.conclusion.keys - target.keys


# --------------------------------------------------------------------------
# Deriving implied key sets.


def test_derive_running_example(x1, x2, x_goal):
    d = derive_keyset((x1, x2), x_goal)
    assert check_derivation(d)
    assert d.conclusion == x_goal
    assert [s.rule for s in d.steps] == [RULE_NARY]


def test_derive_with_refinement():
    premise = KeySet.of(A | B)
    goal = KeySet.of(A, B)
    d = derive_keyset((premise,), goal)
    assert check_derivation(d)
    assert [s.rule for s in d.steps] == [RULE_NARY, RULE_REFINEMENT]


def test_derive_with_upward_closure():
    d = derive_keyset((KeySet.of(A),), KeySet.of(A, B | C))
    assert check_derivation(d)
    assert [s.rule for s in d.steps] == [RULE_NARY, RULE_UPWARD]


def test_derive_rejects_non_implied(x1, x2):
    with pytest.raises(RuleError, match="not implied"):
        derive_keyset((x1, x2), KeySet.of({2}))


def test_derive_rejects_empty_premises(x1):
    with pytest.raises(RuleError, match="empty premise family"):
        derive_keyset((), x1)


def test_derive_node_cap(monkeypatch):
    # a choice product of 8; the search behind derive_keyset visits 22 nodes
    inst = pair_c_instance(3)
    monkeypatch.setattr(implication, "CHOICE_CAP", 7)
    with pytest.raises(ResourceLimit) as err:
        derive_keyset(inst.sigma, inst.phi)
    assert (err.value.limit, err.value.size, err.value.cap) == ("search nodes", 8, 7)
    monkeypatch.setattr(implication, "CHOICE_CAP", 8)
    assert check_derivation(derive_keyset(inst.sigma, inst.phi))


def test_derive_refuses_what_implies_refuses():
    # a product of 2**20, past the cap, that nothing prunes early
    inst = pair_c_instance(20)
    with pytest.raises(ResourceLimit) as err:
        derive_keyset(inst.sigma, inst.phi)
    assert (err.value.limit, err.value.size, err.value.cap) == ("search nodes", CHOICE_CAP + 1, CHOICE_CAP)
    # the first key tuple refutes this goal, although the product is 2**40
    family = tuple(KeySet.of({2 * i}, {2 * i + 1}) for i in range(40))
    with pytest.raises(RuleError, match="not implied"):
        derive_keyset(family, KeySet.of(frozenset(range(80))))


def test_derive_composes_a_premise_that_alone_implies_the_goal():
    # the third premise's keys all lie inside the goal keys they contain
    family = (KeySet.of(A | D, B | D), KeySet.of(D), KeySet.of(A | B, C))
    d = derive_keyset(family, KeySet.of(A, B, C))
    assert check_derivation(d)
    assert d.steps[0].refs == (("p", 2),)
    assert [s.rule for s in d.steps] == [RULE_NARY, RULE_REFINEMENT]


def test_derived_table_is_read_off_the_search():
    inst = from_3sat(parse_dimacs(UNSAT_15))
    started = time.perf_counter()
    d = derive_keyset(inst.sigma, inst.phi)
    text = format_derivation(d, inst.schema)
    parsed, schema = parse_derivation(text)
    assert check_derivation(parsed)
    assert time.perf_counter() - started < 1
    assert (parsed, schema) == (d, inst.schema)
    # the search visits 1,580 nodes of a 2**15 product; the table has an
    # entry per pruned prefix, each mapped straight to one clause's key
    assert len(d.steps[0].params.entries) == 791
    assert [s.rule for s in d.steps] == [RULE_NARY, RULE_UPWARD]
    assert len(text.encode()) == 80064


def test_derivation_shape_is_nary_refinements_upward():
    rng = random.Random(20240819)
    schema = Schema.of(*"abcd")
    derived = 0
    for _ in range(200):
        family = tuple(
            KeySet(
                frozenset(
                    frozenset(rng.sample(range(4), rng.randint(1, 2)))
                    for _ in range(rng.randint(1, 2))
                )
            )
            for _ in range(rng.randint(1, 3))
        )
        keys = frozenset(
            frozenset(rng.sample(range(4), rng.randint(1, 2))) for _ in range(rng.randint(1, 3))
        )
        goal = KeySet(keys)
        if not implies(ImplicationInstance(schema, family, goal)).implied:
            continue
        d = derive_keyset(family, goal)
        derived += 1
        assert check_derivation(d)
        assert d.conclusion == goal
        rules = [s.rule for s in d.steps]
        assert rules[0] == RULE_NARY
        assert rules.count(RULE_NARY) == 1
        assert rules.count(RULE_UPWARD) <= 1
        middle = rules[1 : -1 if rules[-1] == RULE_UPWARD else len(rules)]
        assert all(r == RULE_REFINEMENT for r in middle)
        assert parse_derivation(format_derivation(d, schema)) == (d, schema)
    assert derived > 20


def test_completeness_on_exhaustive_universe():
    """Every implied goal in a small closed universe is derivable, and
    nothing else is."""
    schema = Schema.of(*"abc")
    keys = [frozenset(k) for size in (1, 2) for k in itertools.combinations(range(3), size)]
    keysets = [KeySet.of(k) for k in keys]
    keysets += [KeySet.of(k1, k2) for k1, k2 in itertools.combinations(keys, 2)]
    families = [(ks,) for ks in keysets]
    families += list(itertools.combinations(keysets, 2))
    implied = refuted = 0
    for family in families:
        for goal in keysets:
            expected = implies(ImplicationInstance(schema, family, goal)).implied
            if expected:
                implied += 1
                d = derive_keyset(family, goal)
                assert check_derivation(d)
                assert d.conclusion == goal
            else:
                refuted += 1
                with pytest.raises(RuleError):
                    derive_keyset(family, goal)
    assert implied and refuted


# --------------------------------------------------------------------------
# Text round trips.


def test_format_parse_round_trip(ward_schema, x1, x2, x_goal):
    d = derive_keyset((x1, x2), x_goal)
    text = format_derivation(d, ward_schema)
    parsed, schema = parse_derivation(text)
    assert parsed == d
    assert schema == ward_schema
    assert format_derivation(parsed, schema) == text


def test_round_trip_with_hostile_names():
    schema = Schema.of("a->b", "x|y", "w; z", 'has " quote', "p with q", "m => n")
    premise = KeySet.of({0, 1}, {2})
    goal = KeySet.of({0, 1}, {2}, {3, 4, 5})
    d = derive_keyset((premise,), goal)
    assert check_derivation(d)
    text = format_derivation(d, schema)
    parsed, schema2 = parse_derivation(text)
    assert parsed == d
    assert schema2 == schema


def test_round_trip_simulated_derivation():
    family = (KeySet.of(A, B), KeySet.of(C), KeySet.of(D))
    choice = {combo: frozenset().union(*combo) for combo in itertools.product(*family)}
    d = simulate_nary(family, choice)
    schema = Schema.of(*"abcd")
    parsed, _ = parse_derivation(format_derivation(d, schema))
    assert parsed == d
    assert check_derivation(parsed)


def test_parse_handwritten_derivation(ward_schema, x1, x2, x_goal):
    text = """\
# composition straight to the goal
schema: room,name,address,injury,time
premise 0: {{room,time},{injury,time}}
premise 1: {{name,time},{injury,time}}
0: Composition from p0,p1 with \
{room,time}|{name,time}->{room,name,time}; \
{room,time}|{injury,time}->{injury,time}; \
{injury,time}|{name,time}->{injury,time}; \
{injury,time}|{injury,time}->{injury,time} \
=> {{room,name,time},{injury,time}}
conclusion: {{room,name,time},{injury,time}}
"""
    d, schema = parse_derivation(text)
    assert schema == ward_schema
    assert d.premises == (x1, x2)
    assert d.conclusion == x_goal
    assert check_derivation(d)


@pytest.mark.parametrize(
    "text,message",
    [
        ("conclusion: {{a}}\n", "schema line must come first"),
        ("schema: a\nschema: a\nconclusion: {{a}}\n", "duplicate schema line"),
        ("schema: a\npremise 1: {{a}}\nconclusion: {{a}}\n", "numbered in order"),
        (
            "schema: a\n0: UpwardClosure from p0 with {{a}} => {{a}}\npremise 0: {{a}}\nconclusion: {{a}}\n",
            "premise after a step line",
        ),
        ("schema: a\nconclusion: {{a}}\npremise 0: {{a}}\n", "content after the conclusion line"),
        ("schema: a\nwhatever\nconclusion: {{a}}\n", "unrecognized line"),
        ("schema: a\n1: UpwardClosure from p0 with {{a}} => {{a}}\nconclusion: {{a}}\n", "numbered in order"),
        ("schema: a\n0: UpwardClosure from x9 with {{a}} => {{a}}\nconclusion: {{a}}\n", "bad reference"),
        ("schema: a\n0: UpwardClosure from p0 {{a}} => {{a}}\nconclusion: {{a}}\n", "missing ' with '"),
        ("schema: a\n0: UpwardClosure from p0 with {{a}} {{a}}\nconclusion: {{a}}\n", "one ' => '"),
        ("schema: a\n0: Weakening from p0 with {{a}} => {{a}}\nconclusion: {{a}}\n", "unknown rule"),
        ("schema: a\n0: Refinement from p0 with {a} => {{a}}\nconclusion: {{a}}\n", "needs one '->'"),
        ("schema: a\n0: Refinement from p0 with {a}->{a} => {{a}}\nconclusion: {{a}}\n", "needs one '|'"),
        ("schema: a\n0: Composition from p0,p1 with {a} => {{a}}\nconclusion: {{a}}\n", "needs one '->'"),
        ("schema: a\npremise 0: {{a}}\n", "missing conclusion line"),
        ("# nothing\n", "missing schema line"),
        ("schema: a,a\nconclusion: {{a}}\n", "duplicate attribute name 'a'"),
    ],
)
def test_parse_derivation_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_derivation(text)


def test_parsed_composition_checks(ward_schema, x1, x2, x_goal):
    # a parsed derivation with entries in non-canonical order still checks
    d = derive_keyset((x1, x2), x_goal)
    text = format_derivation(d, ward_schema)
    lines = text.splitlines()
    step = lines[3]
    head, params_and_tail = step.split(" with ", 1)
    params, tail = params_and_tail.split(" => ", 1)
    entries = params.split("; ")
    scrambled = "; ".join(reversed(entries))
    lines[3] = f"{head} with {scrambled} => {tail}"
    parsed, _ = parse_derivation("\n".join(lines) + "\n")
    assert check_derivation(parsed)
