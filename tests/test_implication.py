"""Implication decider tests.

Three routes must agree: the key-choice decider, the unary-fragment
shortcut, and a brute-force oracle that enumerates every behaviorally
distinct two-row relation. The decider's pruned search must also return
exactly the decision, witness included, of a walk over the whole
key-choice product. Witnesses are never trusted: each one is
re-validated against the satisfaction semantics.

The 3-CNF reduction is checked against truth-table satisfiability, the
one tool here that shares no code with the decider.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    UNSAT_15,
    keysets_st,
    pair_c_instance,
    pair_state,
    random_family,
    random_keyset,
    reference_implies,
    reference_search,
    witness_refutes,
)
from keysets import (
    CnfFormula,
    Decision,
    ImplicationInstance,
    KeySet,
    ParseError,
    ResourceLimit,
    Schema,
    build_counterexample,
    from_3sat,
    gen_sequential_keysets,
    implies,
    implies_bruteforce,
    implies_unary,
    parse_dimacs,
    satisfiable,
    satisfies,
)
from keysets import implication
from keysets.implication import BRUTEFORCE_ATTR_CAP, CHOICE_CAP, DIMACS_VARIABLE_CAP, _search

# --------------------------------------------------------------------------
# The running example: {x1, x2} implies x but not phi_prime.


def test_running_example_implied(ward_schema, x1, x2, x_goal):
    decision = implies(ImplicationInstance(ward_schema, (x1, x2), x_goal))
    assert decision.implied
    assert decision.witness is None


def test_running_example_not_implied(ward_schema, x1, x2, phi_prime):
    inst = ImplicationInstance(ward_schema, (x1, x2), phi_prime)
    decision = implies(inst)
    assert not decision.implied
    witness = decision.witness
    assert witness.choice == (frozenset({3, 4}), frozenset({3, 4}))
    assert witness_refutes(inst, witness)
    rows = witness.relation.rows
    assert rows[0].values == ("0",) * 5
    assert rows[1].values == (None, None, None, "1", "0")


def test_reflexivity(ward_schema, x1):
    assert implies(ImplicationInstance(ward_schema, (x1,), x1)).implied


def test_upward_closed_goal_is_implied(ward_schema, x1):
    wider = KeySet(x1.keys | {frozenset({2})})
    assert implies(ImplicationInstance(ward_schema, (x1,), wider)).implied


def test_empty_sigma_implies_nothing(ward_schema, x1):
    inst = ImplicationInstance(ward_schema, (), x1)
    decision = implies(inst)
    assert not decision.implied
    witness = decision.witness
    assert witness.choice == ()
    rows = witness.relation.rows
    assert len(rows) == 2
    assert rows[0].values == rows[1].values
    assert None not in rows[0].values
    assert witness_refutes(inst, witness)


# --------------------------------------------------------------------------
# Counterexample construction.


def test_build_counterexample_rejects_wrong_length(ward_schema, x1, phi_prime):
    inst = ImplicationInstance(ward_schema, (x1,), phi_prime)
    with pytest.raises(ValueError, match="exactly one key per member"):
        build_counterexample((), inst)


def test_build_counterexample_rejects_foreign_key(ward_schema, x1, phi_prime):
    inst = ImplicationInstance(ward_schema, (x1,), phi_prime)
    with pytest.raises(ValueError, match="not drawn from"):
        build_counterexample((frozenset({2}),), inst)


def test_build_counterexample_rejects_fine_choice(ward_schema, x1, x2, x_goal):
    inst = ImplicationInstance(ward_schema, (x1, x2), x_goal)
    with pytest.raises(ValueError, match="not failing"):
        build_counterexample((frozenset({0, 4}), frozenset({1, 4})), inst)


def test_instance_rejects_oversized_keyset(ward_schema, x1):
    with pytest.raises(ValueError, match="outside the schema"):
        ImplicationInstance(ward_schema, (x1,), KeySet.of({9}))


def test_search_node_cap(monkeypatch):
    # a choice product of 8; the search visits 22 nodes
    inst = pair_c_instance(3)
    monkeypatch.setattr(implication, "CHOICE_CAP", 7)
    with pytest.raises(ResourceLimit) as err:
        implies(inst)
    assert (err.value.limit, err.value.size, err.value.cap) == ("search nodes", 8, 7)
    monkeypatch.setattr(implication, "CHOICE_CAP", 8)
    assert _search(inst.sigma, inst.phi) == (None, 22)
    assert implies(inst).implied


# --------------------------------------------------------------------------
# Unary fragment.


def test_implies_unary_goldens(x1, x2, phi_prime, ward_schema):
    assert not implies_unary((x1, x2), phi_prime)
    smaller = KeySet.of({0}, {3}, {4})  # covers x1's attribute union
    assert implies_unary((x1, x2), smaller)
    assert implies(ImplicationInstance(ward_schema, (x1, x2), smaller)).implied


def test_implies_unary_rejects_non_unary(x1, x2):
    with pytest.raises(ValueError, match="singleton keys"):
        implies_unary((x2,), x1)


def test_implies_unary_empty_sigma():
    assert not implies_unary((), KeySet.of({0}))


# --------------------------------------------------------------------------
# Figure fixtures: the family neither implies sigma1 nor sigma2, and the
# canonical witnesses reproduce the missing-value patterns of the two-row
# relations, while their union breaks the family itself.


def test_figure_relations(abcd_schema, sigma_abcd, sigma1, sigma2, left1, left2, union_rel):
    for member in sigma_abcd:
        assert satisfies(left1, member)
        assert satisfies(left2, member)
    assert not satisfies(left1, sigma1)
    assert satisfies(left1, sigma2)
    assert not satisfies(left2, sigma2)
    assert satisfies(left2, sigma1)
    assert not all(satisfies(union_rel, member) for member in sigma_abcd)


def test_figure_witnesses(abcd_schema, sigma_abcd, sigma1, sigma2, left1, left2):
    inst1 = ImplicationInstance(abcd_schema, sigma_abcd, sigma1)
    decision1 = implies(inst1)
    assert not decision1.implied
    assert decision1.witness.choice == (frozenset({1}), frozenset({3}))
    assert witness_refutes(inst1, decision1.witness)
    wrows = decision1.witness.relation.rows
    assert pair_state(*wrows) == pair_state(*left1.rows) == ("partial", "differ", "partial", "differ")

    inst2 = ImplicationInstance(abcd_schema, sigma_abcd, sigma2)
    decision2 = implies(inst2)
    assert not decision2.implied
    assert decision2.witness.choice == (frozenset({0}), frozenset({2}))
    assert witness_refutes(inst2, decision2.witness)
    wrows = decision2.witness.relation.rows
    assert pair_state(*wrows) == pair_state(*left2.rows) == ("differ", "partial", "differ", "partial")


# --------------------------------------------------------------------------
# Route agreement on random instances.


def test_decider_matches_bruteforce_on_random_instances():
    rng = random.Random(20240817)
    schema = Schema.of(*"abcde")
    agree = 0
    for _ in range(300):
        sigma = random_family(rng, 5, max_members=3, min_members=0)
        phi = random_keyset(rng, 5)
        inst = ImplicationInstance(schema, sigma, phi)
        decision = implies(inst)
        assert decision.implied == implies_bruteforce(inst)
        if decision.implied:
            agree += 1
        else:
            assert witness_refutes(inst, decision.witness)
    assert 0 < agree < 300  # the sample exercises both outcomes


@st.composite
def families_st(draw) -> ImplicationInstance:
    width = draw(st.integers(1, 8))
    schema = Schema(tuple(f"c{i}" for i in range(width)))
    sigma = draw(st.lists(keysets_st(width, max_keys=4), max_size=4))
    return ImplicationInstance(schema, tuple(sigma), draw(keysets_st(width, max_keys=4)))


@st.composite
def cnf_instances_st(draw) -> ImplicationInstance:
    variables = tuple(f"x{i}" for i in range(1, draw(st.integers(1, 6)) + 1))
    literals = st.tuples(st.sampled_from(variables), st.booleans())
    clauses = draw(st.lists(st.frozensets(literals, min_size=1, max_size=3), min_size=1, max_size=4 * len(variables)))
    return from_3sat(CnfFormula(variables, tuple(clauses)))


@settings(max_examples=150)
@given(families_st() | cnf_instances_st())
def test_search_matches_product_walk(inst):
    decision = implies(inst)
    assert decision == reference_implies(inst)
    if len(inst.schema) <= 8:
        assert decision.implied == implies_bruteforce(inst)


def test_search_does_not_recurse():
    width = 5000
    schema = Schema(tuple(f"c{i}" for i in range(width + 1)))
    sigma = tuple(KeySet.of({a}) for a in range(width))
    # phi is covered only once the last key is chosen, so the search
    # reaches full depth before it prunes
    inst = ImplicationInstance(schema, sigma, KeySet.of(set(range(width))))
    assert implies(inst).implied
    assert _search(inst.sigma, inst.phi) == (None, width)
    refuted = ImplicationInstance(schema, sigma, KeySet.of({width}))
    assert implies(refuted) == reference_implies(refuted)
    assert _search(refuted.sigma, refuted.phi) == ((0,) * width, width)


def test_search_work_count_on_unsatisfiable_formula():
    inst = from_3sat(parse_dimacs(UNSAT_15))
    assert len(inst.sigma) == 15
    picks, nodes = _search(inst.sigma, inst.phi)
    assert picks is None
    # the product has 2**15 = 32,768 choices; the search visits 1,580 nodes
    assert nodes == 1580
    assert implies(inst).implied


def search_record_instances():
    rng = random.Random(20261019)
    schema = Schema.of(*"abcdef")
    for _ in range(300):
        (phi,) = random_family(rng, 6, 1, 4)
        yield ImplicationInstance(schema, random_family(rng, 6, max_members=4), phi)
    for _ in range(100):
        variables = tuple(f"x{i}" for i in range(1, rng.randint(1, 6) + 1))
        clauses = (
            frozenset((rng.choice(variables), rng.random() < 0.5) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4 * len(variables)))
        )
        yield from_3sat(CnfFormula(variables, tuple(clauses)))
    yield from_3sat(parse_dimacs(UNSAT_15))


def test_search_records_its_whole_choice_table():
    implied = 0
    for inst in search_record_instances():
        leaves = []
        picks, nodes = _search(inst.sigma, inst.phi, leaves)
        assert (picks, nodes) == _search(inst.sigma, inst.phi)
        assert all(a < b for a, b in zip(leaves, leaves[1:]))
        recorded = set(leaves)
        assert not any(leaf[:k] in recorded for leaf in leaves for k in range(1, len(leaf)))
        if not leaves and picks is None:
            continue  # a member with only skipped keys stops the search at once
        implied += picks is None
        # the leaves begin every full key tuple before the first failing
        # choice exactly once, and no later one
        for full in itertools.product(*(range(len(ks)) for ks in inst.sigma)):
            begun = sum(full[:k] in recorded for k in range(1, len(full) + 1))
            assert begun == (picks is None or full < picks)
    assert implied >= 30  # the draw exercises implied instances too


def test_search_records_skipped_keys_in_place():
    # {not_x2} lies inside the clause key {not_x2}, so the search skips it
    # under both entered nodes of depth 0; only the key {x2} is a node there
    inst = from_3sat(parse_dimacs("p cnf 2 3\n1 2 0\n-1 2 0\n-2 0\n"))
    leaves = []
    assert _search(inst.sigma, inst.phi, leaves) == (None, 4)
    assert leaves == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_indexed_search_matches_the_full_scan():
    # a node tests only the phi keys that meet its new key; its picks, node
    # count and record must be those of the scan over every key of phi
    formulas = (from_3sat(planted_3cnf(seed, 20, 80)) for seed in range(10))
    for inst in itertools.chain(search_record_instances(), formulas):
        leaves, expected = [], []
        assert _search(inst.sigma, inst.phi, leaves) == reference_search(inst.sigma, inst.phi, expected)
        assert leaves == expected


def test_time_per_node_follows_the_phi_keys_that_meet_the_new_key(monkeypatch):
    # both searches raise on node 50,001; phi has 160 keys in one and 2 in
    # the other, but a node of the first tests only the clause keys that
    # hold its literal, about 6 of them
    monkeypatch.setattr(implication, "CHOICE_CAP", 50_000)

    def time_to_cap(inst):
        times = []
        for _ in range(3):
            started = time.perf_counter()
            with pytest.raises(ResourceLimit) as err:
                _search(inst.sigma, inst.phi)
            times.append(time.perf_counter() - started)
            assert err.value.size == 50_001
        return min(times)

    ratio = time_to_cap(from_3sat(planted_3cnf(1, 40, 160))) / time_to_cap(pair_c_instance(16))
    assert ratio <= 4.0


def sequential_instance(n: int) -> ImplicationInstance:
    """X_{n-1} of the sequential family over n attributes against the
    other members: implied, with a choice product of n!/2."""
    schema = Schema(tuple(f"c{i}" for i in range(n)))
    family = gen_sequential_keysets(schema)
    return ImplicationInstance(schema, family[: n - 2] + family[n - 1 :], family[n - 2])


def test_search_budget_counts_nodes_not_choices():
    # the products of member sizes are n!/2, past the cap from n = 10 on,
    # but X_n alone implies the goal, and its one key lies inside the
    # goal's keys, so the search settles each instance at its root
    for n in (10, 11, 12):
        inst = sequential_instance(n)
        assert _search(inst.sigma, inst.phi) == (None, 0)
        assert implies(inst).implied
    # a product of 2**20, past the cap, that nothing prunes early
    started = time.perf_counter()
    with pytest.raises(ResourceLimit) as err:
        implies(pair_c_instance(20))
    assert time.perf_counter() - started < 5
    assert err.value.limit == "search nodes"
    assert (err.value.size, err.value.cap) == (CHOICE_CAP + 1, CHOICE_CAP)


def phi_last_instance(pairs: int, last: KeySet | None = None) -> ImplicationInstance:
    """``pairs`` members {{a_i},{b_i}}, then ``last`` (default {{y}}),
    against phi = {{y}}. The search drops the key {y} at its root."""
    schema = Schema((*(f"{c}{i}" for i in range(pairs) for c in "ab"), "y", "z"))
    y = KeySet.of({2 * pairs})
    sigma = tuple(KeySet.of({2 * i}, {2 * i + 1}) for i in range(pairs))
    return ImplicationInstance(schema, (*sigma, last or y), y)


def test_search_budget_spares_products_within_the_cap(monkeypatch):
    # the node budget never refuses an instance whose choice product is
    # inside the cap, however many more nodes than choices it visits
    monkeypatch.setattr(implication, "CHOICE_CAP", 2**10)
    inst = pair_c_instance(10)
    assert _search(inst.sigma, inst.phi) == (None, 2**11 - 2 + 2**10)
    # the product counts kept keys only: {a_0,c} is dropped at the root
    padded = ImplicationInstance(inst.schema, (*inst.sigma, KeySet.of({0, 20}, {20})), inst.phi)
    assert _search(padded.sigma, padded.phi) == (None, 2**11 - 2 + 2**10)
    with pytest.raises(ResourceLimit) as err:
        implies(pair_c_instance(11))
    assert (err.value.limit, err.value.size, err.value.cap) == ("search nodes", 2**10 + 1, 2**10)
    monkeypatch.undo()
    # product 2**19 <= CHOICE_CAP, and about 1.57 million nodes
    assert implies(pair_c_instance(19)) == Decision(True, None)


def test_unary_goals_take_one_node_per_member():
    # a member whose attributes lie inside phi's settles the answer at the
    # root, although the choice product is 2**40
    inst = phi_last_instance(40)
    assert _search(inst.sigma, inst.phi) == (None, 0)
    assert implies(inst) == Decision(True, None)
    # otherwise no kept key is ever covered: one node per member
    inst = phi_last_instance(40, KeySet.of({80}, {81}))
    assert _search(inst.sigma, inst.phi) == ((0,) * 40 + (1,), 41)
    decision = implies(inst)
    assert not decision.implied
    assert decision.witness.choice[-1] == frozenset({81})
    assert witness_refutes(inst, decision.witness)


def planted_3cnf(seed: int, num_vars: int, num_clauses: int) -> CnfFormula:
    """Random 3-CNF whose clauses all hold under one random assignment."""
    rng = random.Random(seed)
    variables = tuple(f"x{i}" for i in range(1, num_vars + 1))
    truth = {v: rng.random() < 0.5 for v in variables}
    clauses: list[frozenset] = []
    while len(clauses) < num_clauses:
        clause = frozenset((v, rng.random() < 0.5) for v in rng.sample(variables, 3))
        if any(truth[v] == positive for v, positive in clause):
            clauses.append(clause)
    return CnfFormula(variables, tuple(clauses))


def test_satisfiable_formula_past_the_choice_product():
    # 2**40 key choices; the search finds a failing one after 46 nodes
    inst = from_3sat(planted_3cnf(4, 40, 80))
    assert len(inst.sigma) == 40
    assert _search(inst.sigma, inst.phi)[1] == 46
    decision = implies(inst)
    assert not decision.implied
    assert witness_refutes(inst, decision.witness)  # satisfies sigma, violates phi


def test_bruteforce_cap():
    # the cap counts the attributes some key mentions, not the schema
    schema = Schema(tuple(f"c{i}" for i in range(13)))
    inst = ImplicationInstance(schema, (KeySet.of({0}),), KeySet.of({0}))
    assert implies_bruteforce(inst)
    assert implies_bruteforce(ImplicationInstance(schema, (KeySet.of({0}),), KeySet.of({0}, {1})))
    wide = ImplicationInstance(schema, (KeySet.of(*({a} for a in range(13))),), KeySet.of({0}))
    started = time.perf_counter()
    with pytest.raises(ResourceLimit) as err:
        implies_bruteforce(wide)
    # raised before enumerating any of the 3^13 patterns
    assert time.perf_counter() - started < 0.05
    assert (err.value.limit, err.value.size, err.value.cap) == ("brute-force attribute set", 13, 12)
    assert BRUTEFORCE_ATTR_CAP == 12


@given(st.data())
def test_growing_sigma_preserves_implication(data):
    width = data.draw(st.integers(2, 5))
    schema = Schema(tuple(f"c{i}" for i in range(width)))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = random_family(rng, width, max_members=2, min_members=0)
    phi = random_keyset(rng, width)
    extra = random_keyset(rng, width)
    if implies(ImplicationInstance(schema, sigma, phi)).implied:
        assert implies(ImplicationInstance(schema, sigma + (extra,), phi)).implied


@given(st.data())
def test_unary_decider_matches_general_decider(data):
    width = data.draw(st.integers(2, 5))
    schema = Schema(tuple(f"c{i}" for i in range(width)))
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    sigma = random_family(rng, width, max_members=3, min_members=0)
    attrs = rng.sample(range(width), rng.randint(1, width))
    phi = KeySet.of(*({a} for a in attrs))
    inst = ImplicationInstance(schema, sigma, phi)
    assert implies_unary(sigma, phi) == implies(inst).implied


# --------------------------------------------------------------------------
# DIMACS parsing and satisfiability.

DIMACS_EXAMPLE = """\
c tiny example
p cnf 3 2
1 -2 3 0
-1 2 0
"""


def test_parse_dimacs_golden():
    formula = parse_dimacs(DIMACS_EXAMPLE)
    assert formula.variables == ("x1", "x2", "x3")
    assert formula.clauses == (
        frozenset({("x1", True), ("x2", False), ("x3", True)}),
        frozenset({("x1", False), ("x2", True)}),
    )


def test_parse_dimacs_clause_spanning_lines():
    formula = parse_dimacs("p cnf 2 1\n1\n-2 0\n")
    assert formula.clauses == (frozenset({("x1", True), ("x2", False)}),)


def test_parse_dimacs_duplicate_literals_collapse():
    formula = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
    assert formula.clauses == (frozenset({("x1", True), ("x2", True)}),)


@pytest.mark.parametrize(
    "text,message",
    [
        ("p cnf 3\n1 0\n", "malformed problem line"),
        ("p dnf 3 1\n1 0\n", "malformed problem line"),
        ("1 0\n", "clause data before the problem line"),
        ("p cnf 2 1\n3 0\n", "exceeds declared variable count"),
        ("p cnf 2 1\n0\n", "empty clause"),
        ("p cnf 4 1\n1 2 3 4 0\n", "at most 3 allowed"),
        ("p cnf 2 1\n1 2\n", "not terminated by 0"),
        ("", "missing problem line"),
        ("c only a comment\n", "missing problem line"),
        ("p cnf x 3\n1 0\n", "malformed problem line"),
        ("p cnf -2 1\n1 0\n", "malformed problem line"),
        ("p cnf 2 -1\n1 0\n", "malformed problem line"),
        ("q cnf 2 1\n1 0\n", "clause data before the problem line"),
        ("pcnf 2 1\n1 0\n", "malformed problem line"),
        ("p cnf 2 1\n1 a 0\n", "literal 'a' is not an integer"),
        ("p cnf 2 1\n1 2.0 0\n", "literal '2.0' is not an integer"),
    ],
)
def test_parse_dimacs_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_dimacs(text)


@pytest.mark.parametrize(
    "text,line",
    [
        ("c header\np cnf x 3\n", 2),
        ("p cnf 2 1\n\n1 a 0\n", 3),
        ("p cnf 2 1\n1 0\n3 0\n", 3),
        ("p cnf 2 1\n1 2\n", 2),
        ("p cnf 2 1\n1 -2\nc trailing comment\n", 3),
        ("p cnf 2 1\n1 2 0\np cnf 3 1\n3 0\n", 3),
        ("p cnf 5 1\n5 0\np cnf 1 1\n1 0\n", 3),
    ],
)
def test_parse_dimacs_errors_name_the_line(text, line):
    with pytest.raises(ParseError, match=f"^line {line}: ") as err:
        parse_dimacs(text)
    assert err.value.position == line


def test_parse_dimacs_variable_cap():
    started = time.perf_counter()
    with pytest.raises(ParseError, match=f"^line 1: declares 2000000 variables, cap is {DIMACS_VARIABLE_CAP}"):
        parse_dimacs("p cnf 2000000 0\n")
    assert time.perf_counter() - started < 0.05
    formula = parse_dimacs(f"p cnf {DIMACS_VARIABLE_CAP} 1\n{DIMACS_VARIABLE_CAP} 0\n")
    assert len(formula.variables) == DIMACS_VARIABLE_CAP


def test_cnf_validation():
    with pytest.raises(ValueError, match="duplicate variable"):
        CnfFormula(("p", "p"), ())
    with pytest.raises(ValueError, match="empty clause"):
        CnfFormula(("p",), (frozenset(),))
    with pytest.raises(ValueError, match="at most 3"):
        CnfFormula(("p", "q", "r", "s"), (frozenset({("p", True), ("q", True), ("r", True), ("s", True)}),))
    with pytest.raises(ValueError, match="undeclared variable"):
        CnfFormula(("p",), (frozenset({("q", True)}),))


def test_satisfiable_small_cases():
    assert satisfiable(parse_dimacs("p cnf 1 1\n1 0\n"))
    assert not satisfiable(parse_dimacs("p cnf 1 2\n1 0\n-1 0\n"))
    assert not satisfiable(parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"))
    # unused declared variables do not blow up the truth table
    assert satisfiable(parse_dimacs("p cnf 30 1\n1 0\n"))


def _unit_clauses(k: int) -> CnfFormula:
    """``x1 & ... & xk``: only the last assignment of the table satisfies it."""
    names = tuple(f"x{i}" for i in range(1, k + 1))
    return CnfFormula(names, tuple(frozenset({(v, True)}) for v in names))


def test_satisfiable_caps_the_truth_table():
    started = time.perf_counter()
    with pytest.raises(ResourceLimit) as err:
        satisfiable(_unit_clauses(20))
    assert time.perf_counter() - started < 0.1
    assert (err.value.limit, err.value.size, err.value.cap) == ("truth-table assignments", 2**20, CHOICE_CAP)
    # a size too long to print in decimal still gives a readable message
    with pytest.raises(ResourceLimit, match=r"has 2\*\*20000 or more elements"):
        satisfiable(_unit_clauses(20_000))


def test_satisfiable_cap_boundary(monkeypatch):
    monkeypatch.setattr(implication, "CHOICE_CAP", 2**5)
    assert satisfiable(_unit_clauses(5))
    with pytest.raises(ResourceLimit) as err:
        satisfiable(_unit_clauses(6))
    assert (err.value.size, err.value.cap) == (2**6, 2**5)


# --------------------------------------------------------------------------
# The 3-CNF reduction.


def test_from_3sat_structure():
    formula = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    inst = from_3sat(formula)
    assert inst.schema == Schema.of("x1", "not_x1", "x2", "not_x2")
    assert inst.sigma == (KeySet.of({0}, {1}), KeySet.of({2}, {3}))
    assert inst.phi == KeySet.of({0, 2}, {1, 2})
    for member in inst.sigma:
        assert member.is_unary() and len(member) == 2


def test_from_3sat_skips_unused_variables():
    inst = from_3sat(parse_dimacs("p cnf 5 1\n2 0\n"))
    assert inst.schema == Schema.of("x2", "not_x2")


def test_from_3sat_satisfiable_means_not_implied():
    inst = from_3sat(parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n"))
    decision = implies(inst)
    assert not decision.implied
    assert witness_refutes(inst, decision.witness)


def test_from_3sat_unsatisfiable_means_implied():
    inst = from_3sat(parse_dimacs("p cnf 1 2\n1 0\n-1 0\n"))
    assert implies(inst).implied


def test_from_3sat_rejects_empty_formula():
    with pytest.raises(ValueError, match="no clauses"):
        from_3sat(CnfFormula(("p",), ()))


def test_from_3sat_rejects_prefix_collision():
    formula = CnfFormula(("x", "not_x"), (frozenset({("not_x", True)}),))
    with pytest.raises(ValueError, match="collides"):
        from_3sat(formula)


def test_from_3sat_is_linear_in_the_formula():
    rng = random.Random(8000)
    variables = tuple(f"x{i}" for i in range(1, 8001))
    clauses = tuple(
        frozenset((v, rng.random() < 0.5) for v in rng.sample(variables, 3)) for _ in range(8000)
    )
    formula = CnfFormula(variables, clauses)
    started = time.perf_counter()
    inst = from_3sat(formula)
    assert time.perf_counter() - started < 1
    occurring = {var for clause in clauses for var, _ in clause}
    used = [v for v in variables if v in occurring]
    assert len(used) < len(variables)
    assert inst.schema.attributes == tuple(name for v in used for name in (v, f"not_{v}"))
    assert inst.sigma == tuple(KeySet.of({2 * i}, {2 * i + 1}) for i in range(len(used)))
    literal = {name: i for i, name in enumerate(inst.schema.attributes)}
    assert inst.phi.keys == {
        frozenset(literal[v if pos else f"not_{v}"] for v, pos in clause) for clause in clauses
    }


def random_cnf(rng: random.Random, max_vars: int = 4, max_clauses: int = 6) -> CnfFormula:
    nvars = rng.randint(1, max_vars)
    variables = tuple(f"x{i}" for i in range(1, nvars + 1))
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        size = rng.randint(1, 3)
        vars_in = rng.sample(variables, min(size, nvars))
        clauses.append(frozenset((v, rng.random() < 0.5) for v in vars_in))
    return CnfFormula(variables, tuple(clauses))


def test_reduction_matches_truth_table():
    rng = random.Random(20240818)
    outcomes = set()
    for _ in range(120):
        formula = random_cnf(rng)
        inst = from_3sat(formula)
        decision = implies(inst)
        assert decision.implied == (not satisfiable(formula))
        outcomes.add(decision.implied)
        if not decision.implied:
            assert witness_refutes(inst, decision.witness)
    assert outcomes == {True, False}
