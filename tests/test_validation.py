"""Validation tests: all-pairs scan vs block refinement vs a slow oracle.

The oracle below re-derives the violating set straight from
``pair_violates`` with no shared code, so the two production routes are
checked against an independent third implementation. Goldens for the
ward and hospital snapshots were worked out by hand from the pair
semantics before being frozen here.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import null_heavy_relation_keyset_st, reference_block_trace, relation_keyset_st
from keysets import (
    BlockSet,
    KeySet,
    Relation,
    Schema,
    block_trace,
    pair_violates,
    parse_keyset,
    satisfies,
    violating_blocks,
    violating_tuples_naive,
)


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
