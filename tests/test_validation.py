"""Validation tests: all-pairs scan vs block refinement vs a slow oracle.

The oracle below re-derives the violating set straight from
``pair_violates`` with no shared code, so the two production routes are
checked against an independent third implementation. Goldens for the
ward and hospital snapshots were worked out by hand from the pair
semantics before being frozen here.
"""

import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    null_heavy_relation_keyset_st,
    reference_block_trace,
    reference_maximal_only,
    relation_keyset_st,
)
from keysets import (
    BlockSet,
    KeySet,
    Relation,
    Schema,
    block_trace,
    gen_random_keyset,
    gen_sequential_keysets,
    pair_violates,
    parse_keyset,
    satisfies,
    synthetic_relation,
    violating_blocks,
    violating_tuples_naive,
)
from keysets import validation


def violating_ids_oracle(relation: Relation, ks: KeySet) -> frozenset[int]:
    """Definitional all-pairs scan in pure Python."""
    bad: set[int] = set()
    for i, t in enumerate(relation.rows):
        for t2 in relation.rows[i + 1 :]:
            if pair_violates(t, t2, ks):
                bad.add(t.row_id)
                bad.add(t2.row_id)
    return frozenset(bad)


def assert_routes_agree(relation: Relation, ks: KeySet) -> None:
    expected = violating_ids_oracle(relation, ks)
    blocks = violating_blocks(relation, ks)
    assert violating_tuples_naive(relation, ks) == expected
    assert blocks.row_ids == expected
    assert satisfies(relation, ks) == (not expected)
    # every reported block is an actual clique of violating pairs
    by_id = relation.by_id
    for block in blocks:
        ids = sorted(block)
        assert len(ids) >= 2
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                assert pair_violates(by_id[a], by_id[b], ks)
    # and no block is subsumed by another
    for block in blocks:
        assert not any(block < other for other in blocks)


# --------------------------------------------------------------------------
# BlockSet canonicalization.


def test_blockset_canonical():
    bs = BlockSet((frozenset({2, 4}), frozenset({1, 2}), frozenset({2, 4})))
    assert bs.blocks == (frozenset({1, 2}), frozenset({2, 4}))
    assert bs.row_ids == frozenset({1, 2, 4})
    assert len(bs) == 2 and bool(bs)
    assert not BlockSet(())
    assert BlockSet(()).row_ids == frozenset()


# --------------------------------------------------------------------------
# Ward goldens.


def test_ward_satisfied_keysets(ward, ward_schema, x1, x2, x_goal):
    for ks in (parse_keyset("{{room},{time}}", ward_schema), x1, x2, x_goal):
        assert satisfies(ward, ks)
        assert not violating_blocks(ward, ks)
        assert violating_tuples_naive(ward, ks) == frozenset()


def test_ward_violated_keyset(ward, ward_schema):
    ks = parse_keyset("{{room,time}}", ward_schema)
    assert not satisfies(ward, ks)
    assert violating_tuples_naive(ward, ks) == frozenset({1, 2, 3, 4})
    assert violating_blocks(ward, ks).blocks == (
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({2, 4}),
    )
    assert_routes_agree(ward, ks)


# --------------------------------------------------------------------------
# Hospital goldens, including the full refinement trace.


def test_hospital_trace(hospital, hospital_trace_ks):
    trace = block_trace(hospital, hospital_trace_ks)
    assert len(trace) == 3
    assert trace[0].blocks == (frozenset({1, 2}), frozenset({2, 3, 4}))
    assert trace[1].blocks == (frozenset({2, 4}), frozenset({3, 4}))
    assert trace[2].blocks == ()
    assert satisfies(hospital, hospital_trace_ks)
    assert not violating_blocks(hospital, hospital_trace_ks)


def test_hospital_name_key(hospital, hospital_schema):
    ks = parse_keyset("{{name}}", hospital_schema)
    assert violating_blocks(hospital, ks).blocks == (frozenset({1, 2}), frozenset({3, 4}))
    assert_routes_agree(hospital, ks)


# --------------------------------------------------------------------------
# Edge cases.


def test_empty_relation(ward_schema, x1):
    empty = Relation.from_values(ward_schema, [])
    assert satisfies(empty, x1)
    assert not violating_blocks(empty, x1)
    assert violating_tuples_naive(empty, x1) == frozenset()
    assert block_trace(empty, x1) == [BlockSet(()), BlockSet(())]


def test_single_row(ward, ward_schema):
    one = Relation.from_values(ward.schema, [ward.rows[0].values], row_ids=[ward.rows[0].row_id])
    ks = parse_keyset("{{room,time}}", ward_schema)
    assert satisfies(one, ks)
    assert violating_tuples_naive(one, ks) == frozenset()


def test_duplicate_total_rows():
    schema = Schema.of("a", "b")
    rel = Relation.from_values(schema, [("1", "2"), ("1", "2"), ("1", "3")])
    ks = KeySet.of({0, 1})
    assert violating_tuples_naive(rel, ks) == frozenset({0, 1})
    assert violating_blocks(rel, ks).blocks == (frozenset({0, 1}),)
    assert_routes_agree(rel, ks)


def test_all_incomplete_block_survives():
    schema = Schema.of("a", "b")
    rel = Relation.from_values(schema, [(None, "x"), (None, "y")])
    ks = KeySet.of({0})
    assert violating_blocks(rel, ks).blocks == (frozenset({0, 1}),)
    assert_routes_agree(rel, ks)


def test_incomplete_rows_join_every_class():
    schema = Schema.of("a",)
    rel = Relation.from_values(schema, [("x",), ("y",), (None,)])
    ks = KeySet.of({0})
    assert violating_blocks(rel, ks).blocks == (frozenset({0, 2}), frozenset({1, 2}))
    assert_routes_agree(rel, ks)


def test_keyset_must_fit_schema():
    rel = Relation.from_values(Schema.of("a"), [("1",)])
    ks = KeySet.of({1})
    for fn in (satisfies, violating_blocks, violating_tuples_naive, block_trace):
        with pytest.raises(ValueError, match="outside the relation's schema"):
            fn(rel, ks)


# --------------------------------------------------------------------------
# Cross-route properties.


@given(relation_keyset_st())
def test_routes_agree_on_random_inputs(pair):
    rel, ks = pair
    assert_routes_agree(rel, ks)


@given(relation_keyset_st(max_rows=6), st.data())
def test_more_keys_never_add_violations(pair, data):
    rel, ks = pair
    width = len(rel.schema)
    extra = data.draw(st.frozensets(st.integers(0, width - 1), min_size=1, max_size=3))
    bigger = KeySet(ks.keys | {extra})
    assert violating_blocks(rel, bigger).row_ids <= violating_blocks(rel, ks).row_ids


@given(relation_keyset_st(max_rows=6), st.data())
def test_removing_rows_never_adds_violations(pair, data):
    rel, ks = pair
    if not rel.rows:
        return
    keep = data.draw(st.sets(st.sampled_from([r.row_id for r in rel.rows])))
    kept = [r for r in rel.rows if r.row_id in keep]
    sub = Relation.from_values(rel.schema, [r.values for r in kept], row_ids=[r.row_id for r in kept])
    assert violating_blocks(sub, ks).row_ids <= violating_blocks(rel, ks).row_ids


# Five rows over 61 two-valued columns. Rows 2 and 3 agree, and their
# class key, read in mixed radix, is (2^63 - 3) / 5: an index tie-break over
# five rows would overflow int64 between them.
_K = (2**63 - 3) // 5
_TWIN = ["b" if _K >> (60 - j) & 1 else "a" for j in range(61)]
_WIDE_PAIR = (
    Relation.from_values(Schema(tuple(f"c{j}" for j in range(61))), [["a"] * 61] * 2 + [_TWIN] * 2 + [["b"] * 61]),
    KeySet.of(range(61)),
)


@settings(max_examples=200)
@given(null_heavy_relation_keyset_st())
@example(_WIDE_PAIR)
def test_block_trace_matches_row_refinement(pair):
    """Every per-key state of the code-based refinement equals the
    row-by-row reference, under heavy nulls and arbitrary row ids."""
    rel, ks = pair
    assert block_trace(rel, ks) == reference_block_trace(rel, ks)
    assert_routes_agree(rel, ks)


# --------------------------------------------------------------------------
# The maximal-block filter against the all-pairs reference filter.


def _case(rows, keys, row_ids):
    return Relation.from_values(Schema.of("a", "b"), rows, row_ids=row_ids), KeySet.of(*keys)


# Final raw states, by row id: {0,5} lies in {0,3,5} and in {0,5,8}; the
# chain {1,2} < {1,2,4} < {1,2,4,9}; and {1,2,3} and {1,2,8}, of equal
# size, share all but one row, each row of them in two blocks.
_IN_TWO = _case(
    [("0", "0"), ("1", "0"), ("1", None), (None, "0"), ("0", "1")],
    [{0, 1}, {1}],
    [8, 3, 5, 0, 6],
)
_CHAIN = _case(
    [("1", None), ("1", "1"), (None, None), ("0", "0"), (None, "1"), ("1", "0")],
    [{0}, {0, 1}, {1}],
    [4, 9, 1, 7, 2, 6],
)
_EQUAL_SIZE = _case(
    [("0", None), ("1", None), (None, "0"), ("1", None), (None, "1")],
    [{0}, {1}],
    [5, 2, 8, 1, 3],
)


@pytest.mark.parametrize(
    "pair, raw, maximal",
    [
        (_IN_TWO, [{0, 3, 5}, {0, 5}, {0, 5, 8}, {5, 6}], [{0, 3, 5}, {0, 5, 8}, {5, 6}]),
        (_CHAIN, [{1, 2}, {1, 2, 4}, {1, 2, 4, 9}, {1, 4, 6}, {1, 7}], [{1, 2, 4, 9}, {1, 4, 6}, {1, 7}]),
        (_EQUAL_SIZE, [{1, 2, 3}, {1, 2, 8}, {3, 5}, {5, 8}], [{1, 2, 3}, {1, 2, 8}, {3, 5}, {5, 8}]),
    ],
    ids=["in-two", "chain", "equal-size"],
)
def test_maximal_filter_cases(pair, raw, maximal):
    rel, ks = pair
    assert block_trace(rel, ks)[-1].blocks == tuple(map(frozenset, raw))
    assert violating_blocks(rel, ks).blocks == tuple(map(frozenset, maximal))


@settings(max_examples=200)
@given(null_heavy_relation_keyset_st(max_rows=20))
@example(_IN_TWO)
@example(_CHAIN)
@example(_EQUAL_SIZE)
def test_maximal_filter_matches_reference(pair):
    rel, ks = pair
    blocks = violating_blocks(rel, ks)
    assert blocks == BlockSet(reference_maximal_only(block_trace(rel, ks)[-1].blocks))
    assert blocks.row_ids == violating_tuples_naive(rel, ks)


def test_two_thousand_rows_with_nulls():
    """2,000 rows x 8 attributes, 30% missing, 4 values per column, under
    X_1: 48,077 raw blocks, of which 30,296 are maximal. The filter that
    compared every block with every kept one took about 110 s on this
    input on a 2-core machine, and the bound fails it."""
    schema = Schema(tuple(f"a{i}" for i in range(8)))
    rel = synthetic_relation(schema, 2000, 0.3, seed=1)
    x1 = gen_sequential_keysets(schema)[0]
    started = time.perf_counter()
    blocks = violating_blocks(rel, x1)
    assert time.perf_counter() - started < 20.0
    assert len(blocks) == 30_296
    assert blocks.row_ids == violating_tuples_naive(rel, x1)


# --------------------------------------------------------------------------
# Key order: violating_blocks and satisfies refine fewest-missing-first.


def _spy_refine(monkeypatch) -> list[list]:
    """Record each refinement's ``[key order, rows summed over its states]``."""
    runs: list[list] = []
    refine = validation._refine

    def spy(relation, keys):
        run = [list(keys), 0]
        runs.append(run)
        for blk, pos in refine(relation, run[0]):
            run[1] += len(pos)
            yield blk, pos

    monkeypatch.setattr(validation, "_refine", spy)
    return runs


@settings(max_examples=150)
@given(null_heavy_relation_keyset_st())
def test_refinement_order_does_not_change_the_answer(pair):
    """Refining the keys in every order leaves the same maximal blocks, and
    an empty state in one order iff in all of them."""
    rel, ks = pair
    blocks = violating_blocks(rel, ks)
    sat = satisfies(rel, ks)
    assert sat == (not blocks) == (not violating_tuples_naive(rel, ks))
    for keys in itertools.permutations(ks.sorted_keys):
        states = list(validation._refine(rel, keys))
        assert validation._blockset(rel, *validation._maximal_only(*states[-1], len(rel))) == blocks
        assert any(not len(pos) for _, pos in states) == sat


def test_total_relation_refines_in_canonical_order(monkeypatch):
    schema = Schema(tuple(f"a{i}" for i in range(8)))
    rel = synthetic_relation(schema, 300, 0.0, seed=2)
    runs = _spy_refine(monkeypatch)
    for ks in (*gen_sequential_keysets(schema), gen_random_keyset(schema, 3, seed=4)):
        runs.clear()
        violating_blocks(rel, ks)
        satisfies(rel, ks)
        assert [keys for keys, _ in runs] == [list(ks.sorted_keys)] * 2


def test_fewest_missing_first_cuts_the_refinement_work(monkeypatch):
    """Rows summed over every refinement state of X_1..X_8 on 320 rows with
    30% missing: block_trace refines in canonical order, violating_blocks
    fewest-missing-first. Both counts are exact pins of the work."""
    schema = Schema(tuple(f"a{i}" for i in range(8)))
    rel = synthetic_relation(schema, 320, 0.3, seed=1)
    family = gen_sequential_keysets(schema)
    runs = _spy_refine(monkeypatch)
    for ks in family:
        block_trace(rel, ks)
    canonical = sum(rows for _, rows in runs)
    runs.clear()
    for ks in family:
        violating_blocks(rel, ks)
    work = sum(rows for _, rows in runs)
    assert work == 205_954 < canonical == 470_596
    # X_3 = {{a0,a1,a2},{a3},...,{a7}}: the singletons, fewest nulls first, then the big key
    nulls = rel.null_counts
    assert runs[2][0] == [*sorted(family[2].sorted_keys[1:], key=lambda k: nulls[min(k)]), frozenset({0, 1, 2})]


def test_wide_key_overflows_to_the_stable_sort(monkeypatch):
    """A 12-column key over about 330 distinct values per column: the
    class key would pass 2**62 at the eighth column, so ``_split``
    re-densifies it there, and that ``_dense`` call's bound times its row
    count passes 2**63, so it takes the stable-sort route. 400 random
    rows with 10% missing cells, plus the first 20 again."""
    rng = random.Random(3)
    schema = Schema(tuple(f"a{i}" for i in range(12)))
    rows = [tuple(None if rng.random() < 0.1 else str(rng.randrange(2000)) for _ in range(12)) for _ in range(400)]
    rel = Relation.from_values(schema, rows + rows[:20])
    ks = KeySet.of(set(range(12)))
    wide = []
    dense = validation._dense

    def spy(key, bound):
        wide.append(bound * len(key) >= 1 << 63)
        return dense(key, bound)

    monkeypatch.setattr(validation, "_dense", spy)
    expected = violating_tuples_naive(rel, ks)
    assert expected
    assert violating_blocks(rel, ks).row_ids == expected
    assert not satisfies(rel, ks)
    # per route: the re-densify, on the stable sort, then the final sort
    assert wide == [True, False, True, False]
