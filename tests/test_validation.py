"""Validation tests: all-pairs scan vs block refinement vs a slow oracle.

The oracle below re-derives the violating set straight from the
conftest's ``pair_violates`` with no shared code, so the two production
routes are checked against an independent third implementation. Goldens for the
ward and hospital snapshots were worked out by hand from the pair
semantics before being frozen here.
"""

import contextlib
import itertools
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    by_id,
    null_heavy_relation_keyset_st,
    pair_violates,
    reference_block_trace,
    reference_maximal_only,
    relation_keyset_st,
)
from keysets import (
    BlockSet,
    KeySet,
    Relation,
    ResourceLimit,
    Schema,
    block_trace,
    gen_random_keyset,
    gen_sequential_keysets,
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
    rows = by_id(relation)
    for block in blocks:
        ids = sorted(block)
        assert len(ids) >= 2
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                assert pair_violates(rows[a], rows[b], ks)
    # and no block is subsumed by another
    for block in blocks:
        assert not any(block < other for other in blocks)


# --------------------------------------------------------------------------
# BlockSet: an unordered set of blocks.


def test_blockset_is_a_set():
    bs = BlockSet((frozenset({2, 4}), frozenset({1, 2}), frozenset({2, 4})))
    assert bs.blocks == {frozenset({1, 2}), frozenset({2, 4})}
    assert isinstance(bs.blocks, frozenset)
    assert bs == BlockSet((frozenset({2, 4}), frozenset({1, 2})))
    assert bs != BlockSet((frozenset({1, 2}),))
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
    assert violating_blocks(ward, ks).blocks == {
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({2, 4}),
    }
    assert_routes_agree(ward, ks)


# --------------------------------------------------------------------------
# Hospital goldens, including the full refinement trace.


def test_hospital_trace(hospital, hospital_trace_ks):
    trace = block_trace(hospital, hospital_trace_ks)
    assert len(trace) == 3
    assert trace[0].blocks == {frozenset({1, 2}), frozenset({2, 3, 4})}
    assert trace[1].blocks == {frozenset({2, 4}), frozenset({3, 4})}
    assert trace[2].blocks == frozenset()
    assert satisfies(hospital, hospital_trace_ks)
    assert not violating_blocks(hospital, hospital_trace_ks)


def test_hospital_name_key(hospital, hospital_schema):
    ks = parse_keyset("{{name}}", hospital_schema)
    assert violating_blocks(hospital, ks).blocks == {frozenset({1, 2}), frozenset({3, 4})}
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
    assert violating_blocks(rel, ks).blocks == {frozenset({0, 1})}
    assert_routes_agree(rel, ks)


def test_all_incomplete_block_survives():
    schema = Schema.of("a", "b")
    rel = Relation.from_values(schema, [(None, "x"), (None, "y")])
    ks = KeySet.of({0})
    assert violating_blocks(rel, ks).blocks == {frozenset({0, 1})}
    assert_routes_agree(rel, ks)


def test_incomplete_rows_join_every_class():
    schema = Schema.of("a",)
    rel = Relation.from_values(schema, [("x",), ("y",), (None,)])
    ks = KeySet.of({0})
    assert violating_blocks(rel, ks).blocks == {frozenset({0, 2}), frozenset({1, 2})}
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


def _total(*columns: str, keys):
    """A total relation whose column ``j`` reads ``columns[j]``, one
    character a cell, under row ids counting down from 20."""
    schema = Schema(tuple(f"c{j}" for j in range(len(columns))))
    rows = list(zip(*columns))
    return Relation.from_values(schema, rows, row_ids=range(20, 20 - len(rows), -1)), KeySet.of(*keys)


# Codes follow first appearance, so on {c0} the sorted state reads
# 0 0 1 2 3 4 4: a two-row class first and another last, singletons
# between; {c1} then keeps both classes whole.
_EDGE_CLASSES = _total("abcdeae", "xxxxxxx", keys=({0}, {1}))
# every class a singleton: the state empties and the key set holds
_SINGLETONS = _total("abcdef", "aabbcc", keys=({0, 1}, {1}))
# one class holding every row, key after key
_ONE_CLASS = _total("aaaaa", "bbbbb", keys=({0}, {0, 1}))

_ORDER = validation._order


def _argsort_order(key, bound):
    """``_order`` forced onto its stable-argsort fallback, which a real key
    reaches only from 2**21 rows."""
    return _ORDER(key, 1 << 63)


@settings(max_examples=200)
@given(null_heavy_relation_keyset_st(), st.booleans())
@example(_WIDE_PAIR, False)
@example(_EDGE_CLASSES, False)
@example(_SINGLETONS, False)
@example(_ONE_CLASS, False)
@example(_EDGE_CLASSES, True)
def test_block_trace_matches_row_refinement(pair, fallback):
    """Every per-key state of the code-based refinement equals the
    row-by-row reference, under heavy nulls and arbitrary row ids; with
    ``fallback``, every sort takes ``_order``'s stable-argsort route."""
    rel, ks = pair
    with mock.patch.object(validation, "_order", _argsort_order) if fallback else contextlib.nullcontext():
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
    assert block_trace(rel, ks)[-1].blocks == set(map(frozenset, raw))
    assert violating_blocks(rel, ks).blocks == set(map(frozenset, maximal))


@settings(max_examples=200)
@given(null_heavy_relation_keyset_st(max_rows=20))
@example(_IN_TWO)
@example(_CHAIN)
@example(_EQUAL_SIZE)
def test_maximal_filter_matches_reference(pair):
    """The filter against the reference, in chunks of one candidate, of a
    few lookups, and of the default size."""
    rel, ks = pair
    expected = BlockSet(reference_maximal_only(block_trace(rel, ks)[-1].blocks))
    assert expected.row_ids == violating_tuples_naive(rel, ks)
    for chunk in (1, 3, validation._PAIR_CHUNK):
        with mock.patch.object(validation, "_PAIR_CHUNK", chunk):
            assert violating_blocks(rel, ks) == expected


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


def test_block_row_cap_fires_before_the_copies_exist():
    """5,000 distinct total rows and 1,100 rows missing ``b``, under
    {{a,b}}: each incomplete row would be copied into all 5,000 classes,
    5,505,000 block rows in all. The cap raises before any copy is made,
    so the call allocates a small fraction of the 5.5 M copies' arrays.
    ``satisfies`` answers from the wild rows without refining."""
    rows = [(str(i), "x") for i in range(5000)] + [(str(i), None) for i in range(1100)]
    rel = Relation.from_values(Schema.of("a", "b"), rows)
    ks = KeySet.of({0, 1})
    for fn in (violating_blocks, block_trace):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit) as info:
                fn(rel, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.value.limit, info.value.size, info.value.cap) == ("block rows", 5_505_000, 5_000_000)
        assert peak < 16 << 20
    assert satisfies(rel, ks) is False


# --------------------------------------------------------------------------
# Plan: violating_blocks and satisfies refine the complete columns first,
# most distinct first in packed rounds, then the keys with missing cells,
# fewest missing first.


def _spy_refine(monkeypatch) -> list[list]:
    """Record each refinement's ``[rounds, rows summed over its states]``."""
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


def test_total_relation_refines_in_one_round(monkeypatch):
    """Every column of this total relation has 4 values, so all the columns
    of a key set fit one packed sort of its 300 rows: each key set is
    refined as one round over the union of its keys."""
    schema = Schema(tuple(f"a{i}" for i in range(8)))
    rel = synthetic_relation(schema, 300, 0.0, seed=2)
    runs = _spy_refine(monkeypatch)
    for ks in (*gen_sequential_keysets(schema), gen_random_keyset(schema, 3, seed=4)):
        runs.clear()
        blocks = violating_blocks(rel, ks)
        sat = satisfies(rel, ks)
        assert [keys for keys, _ in runs] == [[ks.attributes]] * 2
        assert blocks.row_ids == violating_tuples_naive(rel, ks)
        assert sat == (not blocks)


def _graded_relation() -> Relation:
    """300 total rows over columns of 2, 5, 50 and 300 drawn values (189
    distinct in the last); the last 6 rows repeat the first 6."""
    rng = random.Random(5)
    schema = Schema(tuple(f"a{i}" for i in range(4)))
    rows = [tuple(str(rng.randrange(c)) for c in (2, 5, 50, 300)) for _ in range(294)]
    return Relation.from_values(schema, rows + rows[:6])


def _spy_states(monkeypatch) -> list[int]:
    """Record how many states each refinement hands to its caller."""
    taken: list[int] = []
    refine = validation._refine

    def spy(relation, keys):
        taken.append(0)
        for state in refine(relation, keys):
            taken[-1] += 1
            yield state

    monkeypatch.setattr(validation, "_refine", spy)
    return taken


def _wild_after(k: int) -> Relation:
    """Rows ``1111`` and a copy missing its cells after column ``k``, and
    three rows apart on the complete column a0 that miss the last one, two
    and three of a1..a3, so that the plan is {a0}, {a1}, {a2}, {a3}. After
    round ``k < 3`` the copy is the first row in a block to miss a cell of
    every round still to come; for ``k = 3`` it is a duplicate."""
    rows = [("1",) * 4, ("1",) * (k + 1) + (None,) * (3 - k)]
    rows += [(f"b{i}", *(None if j >= 2 - i else "1" for j in range(3))) for i in range(3)]
    return Relation.from_values(Schema(tuple(f"a{i}" for i in range(4))), rows)


def test_satisfies_stops_at_the_first_wild_row(ward, monkeypatch):
    """``satisfies`` takes no state from the refinement once a state holds
    a row that misses a cell of every round still to come."""
    taken = _spy_states(monkeypatch)
    # row 2 misses room: a witness before any round
    assert not satisfies(ward, parse_keyset("{{room,time}}", ward.schema))
    assert sum(taken) == 0
    for k in range(4):
        rel, ks = _wild_after(k), KeySet.of({0}, {1}, {2}, {3})
        assert validation._plan(rel, ks) == [frozenset({j}) for j in range(4)]
        taken.clear()
        assert not satisfies(rel, ks)
        assert taken == [k + 1]
    # a total relation: no row is wild, and its six twins refute every key set at the last round
    rel = _graded_relation()
    for ks in (*gen_sequential_keysets(rel.schema), KeySet.of({2, 3}, {1, 3})):
        taken.clear()
        assert not satisfies(rel, ks)
        assert taken == [len(validation._plan(rel, ks))]


def _graded_wide_rows() -> list[tuple[str, ...]]:
    """300 rows over ten columns: six drawn from 1,000 values (255-264
    distinct each) between columns of 2, 5, 50 and 300 drawn values (194
    distinct in the last); the last 6 rows repeat the first 6."""
    rng = random.Random(5)
    cards = (1000, 2, 1000, 5, 1000, 50, 1000, 300, 1000, 1000)
    rows = [tuple(str(rng.randrange(c)) for c in cards) for _ in range(294)]
    return rows + rows[:6]


def test_total_relation_refines_most_distinct_first(monkeypatch):
    """The complete columns go most distinct first, grouped greedily into
    rounds that fit one packed sort: 2**54 value combinations for 300 rows."""
    runs = _spy_refine(monkeypatch)
    rel = _graded_relation()
    assert [len(d) for d in rel.dictionaries] == [2, 5, 50, 189]
    wide = Relation.from_values(Schema(tuple(f"a{i}" for i in range(10))), _graded_wide_rows())
    assert [len(d) for d in wide.dictionaries] == [264, 2, 257, 5, 258, 50, 261, 194, 255, 262]
    cases = [
        # 2 * 5 * 50 * 189 = 94,500 combinations: one round
        *((rel, ks, [{0, 1, 2, 3}], 6) for ks in gen_sequential_keysets(rel.schema)),
        (rel, KeySet.of({2, 3}, {1, 3}), [{1, 2, 3}], 7),
        # the six columns of 255-264 values make 2**48.1 combinations, and
        # the next one, of 194, would pass 2**54; key boundaries play no part
        *((wide, ks, [{0, 2, 4, 6, 8, 9}, {1, 3, 5, 7}], 6) for ks in gen_sequential_keysets(wide.schema)),
        (wide, KeySet.of({2, 3}, {1, 3}), [{1, 2, 3}], 8),
    ]
    for relation, ks, rounds, nblocks in cases:
        runs.clear()
        blocks = violating_blocks(relation, ks)
        sat = satisfies(relation, ks)
        assert [keys for keys, _ in runs] == [rounds] * 2
        assert len(blocks) == nblocks and not sat
        assert blocks.row_ids == violating_tuples_naive(relation, ks)


def test_plan_refines_complete_columns_first(monkeypatch):
    """On the graded wide rows plus a column missing every third cell (7
    values) and one missing every fifth (11 values), the complete keys
    come first as one round of their columns; the keys with missing cells
    follow, fewest missing first, then most distinct first."""
    rows = [
        (*row, None if i % 3 == 0 else str(i % 7), None if i % 5 == 0 else str(i % 11))
        for i, row in enumerate(_graded_wide_rows())
    ]
    rel = Relation.from_values(Schema(tuple(f"a{i}" for i in range(12))), rows)
    assert rel.null_counts == (0,) * 10 + (100, 60)
    runs = _spy_refine(monkeypatch)
    cases = [
        # {a0, a11} has 60 missing cells; {a2, a10} and {a10} tie at 100, and
        # {a2, a10} has more value combinations
        (KeySet.of({10}, {0, 11}, {1}, {2, 10}, {3}), [{1, 3}, {0, 11}, {2, 10}, {10}]),
        (KeySet.of({10}, {11}, {4, 5}, {0}), [{0, 4, 5}, {11}, {10}]),
    ]
    for ks, rounds in cases:
        runs.clear()
        blocks = violating_blocks(rel, ks)
        sat = satisfies(rel, ks)
        assert [keys for keys, _ in runs] == [rounds] * 2
        assert blocks.row_ids == violating_tuples_naive(rel, ks) and not sat
        assert blocks == BlockSet(reference_maximal_only(block_trace(rel, ks)[-1].blocks))


@st.composite
def _mixed_relation_keyset_st(draw, max_width=6, max_rows=14):
    """Relations whose columns are each complete or miss some cells, with a
    key set mixing keys over complete columns with keys over any columns.
    Up to two rows miss a cell of every key that can miss one, so
    ``satisfies`` may stop on them before any round, when no key is
    complete, or after the complete keys' rounds."""
    width = draw(st.integers(1, max_width))
    complete = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    null_rate = draw(st.sampled_from((0.1, 0.3, 0.5)))
    distinct = draw(st.integers(1, 3))
    nrows = draw(st.integers(0, max_rows))
    rnd = draw(st.randoms(use_true_random=False))
    rows = [
        [None if not complete[j] and rnd.random() < null_rate else f"v{rnd.randrange(distinct)}" for j in range(width)]
        for _ in range(nrows)
    ]
    for j in range(width):
        if rows and not complete[j]:
            rows[rnd.randrange(nrows)][j] = None
    row_ids = rnd.sample(range(3 * nrows + 5), nrows)
    any_key = st.frozensets(st.integers(0, width - 1), min_size=1, max_size=3)
    keys = draw(st.lists(any_key, max_size=3))
    full = [j for j in range(width) if complete[j]]
    if full:
        keys += draw(st.lists(st.frozensets(st.sampled_from(full), min_size=1, max_size=3), max_size=3))
    keys = keys or [draw(any_key)]
    # wild rows: each misses a cell of every key that has a column with missing cells
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2)) if nrows else ():
        for key in keys:
            if open_ := [j for j in sorted(key) if not complete[j]]:
                rows[i][rnd.choice(open_)] = None
    rel = Relation.from_values(Schema(tuple(f"c{i}" for i in range(width))), rows, row_ids=row_ids)
    return rel, KeySet(frozenset(keys))


_ONE_ROW = Relation.from_values(Schema.of("c0", "c1"), [("a", None)]), KeySet.of({0}, {1}, {0, 1})
_TWIN_ROWS = _total("aa", "bb", keys=({0}, {1}))
_ALL_COMPLETE = _total("abab", "xyxy", "pqpr", keys=({0}, {1, 2}))
# 17 complete columns of 12 values each over 14 rows, two of them copies,
# need two packed rounds (12**17 > 2**59); a last column misses cells
_TWO_ROUNDS = (
    Relation.from_values(
        Schema(tuple(f"c{j}" for j in range(18))),
        [[str((i + j) % 12) for j in range(17)] + [None if i % 4 else "x"] for i in (*range(12), 0, 5)],
    ),
    KeySet.of(range(9), range(9, 17), {16, 17}),
)


@settings(max_examples=200)
@given(_mixed_relation_keyset_st())
@example(_ONE_ROW)
@example(_TWIN_ROWS)
@example(_ALL_COMPLETE)
@example(_TWO_ROUNDS)
def test_mixed_relations_match_the_oracles(pair):
    """On relations mixing complete and incomplete columns, the plan
    refines the complete keys' columns first, in null-free rounds, then
    each key with missing cells; the answers equal the all-pairs route's
    and the maximal blocks of canonical block_trace's final state."""
    rel, ks = pair
    nulls = rel.null_counts
    complete = {key for key in ks.keys if not any(nulls[a] for a in key)}
    plan = validation._plan(rel, ks)
    head = len(plan) - len(ks.keys - complete)
    assert not any(nulls[c] for cols in plan[:head] for c in cols)
    assert frozenset().union(*plan[:head]) == frozenset().union(*complete)
    assert set(plan[head:]) == ks.keys - complete
    naive = violating_tuples_naive(rel, ks)
    blocks = violating_blocks(rel, ks)
    assert blocks.row_ids == naive
    assert satisfies(rel, ks) == (not naive)
    assert blocks == BlockSet(reference_maximal_only(block_trace(rel, ks)[-1].blocks))


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


def test_most_distinct_first_cuts_the_refinement_work(monkeypatch):
    """Rows summed over every refinement state of X_1..X_4 on the graded
    relation: block_trace refines in canonical order, violating_blocks
    each key set as one round of its columns, most distinct first. Both
    counts are exact pins of the work."""
    rel = _graded_relation()
    family = gen_sequential_keysets(rel.schema)
    runs = _spy_refine(monkeypatch)
    for ks in family:
        block_trace(rel, ks)
    canonical = sum(rows for _, rows in runs)
    runs.clear()
    blocks = [violating_blocks(rel, ks) for ks in family]
    work = sum(rows for _, rows in runs)
    # one state per key set: the 12 rows of the 6 planted pairs
    assert work == 48 < canonical == 1_383
    # the planted duplicates are the only violations
    assert all(len(b) == 6 for b in blocks)


@given(st.data())
def test_order_is_the_stable_argsort(data):
    """``_order`` on both routes: packed when ``bound`` leaves room for the
    index bits, the stable argsort when it is above that room. Keys come
    from a few values below ``bound``, so ties are common."""
    m = data.draw(st.integers(1, 300))
    room = 1 << (63 - m.bit_length())
    bound = data.draw(st.one_of(st.just(room), st.integers(room + 1, 2 * room), st.integers(room + 1, 1 << 63)))
    values = data.draw(st.lists(st.integers(0, bound - 1), min_size=1, max_size=8))
    key = np.array(data.draw(st.lists(st.sampled_from(values), min_size=m, max_size=m)), dtype=np.int64)
    ordered, order = validation._order(key, bound)
    assert np.array_equal(order, np.argsort(key, kind="stable"))
    assert np.array_equal(ordered, key[order])


def _wide_rows(missing: float) -> list[tuple[str | None, ...]]:
    """400 random rows over 12 columns of about 330 distinct values each,
    every cell missing with probability ``missing``."""
    rng = random.Random(3)
    return [tuple(None if rng.random() < missing else str(rng.randrange(2000)) for _ in range(12)) for _ in range(400)]


def _wide_key_sorts(monkeypatch, rel: Relation, ks: KeySet) -> tuple[list[int], list[bool]]:
    """Validate ``ks`` with both routes, checking their answers. Returns
    the ``_dense`` calls per route, and whether each ``_order`` call packed."""
    dense_calls, packed = [], []
    dense, order = validation._dense, validation._order

    def spy_dense(key, bound):
        dense_calls[-1] += 1
        return dense(key, bound)

    def spy_order(key, bound):
        packed.append(bound <= 1 << (63 - len(key).bit_length()))
        return order(key, bound)

    monkeypatch.setattr(validation, "_dense", spy_dense)
    monkeypatch.setattr(validation, "_order", spy_order)
    expected = violating_tuples_naive(rel, ks)
    assert expected
    for route, check in ((violating_blocks, lambda b: b.row_ids == expected), (satisfies, lambda ok: not ok)):
        dense_calls.append(0)
        assert check(route(rel, ks))
    return dense_calls, packed


_WIDE_SCHEMA = Schema(tuple(f"a{i}" for i in range(12)))


def test_wide_key_re_densifies_and_stays_packed(monkeypatch):
    """A 12-column key over the wide rows with 10% missing cells, plus the
    first 20 again: the class key outgrows the room ``_order`` needs for
    its index bits, so ``_split`` re-densifies it twice, and every
    ``_order`` call packs. ``satisfies`` refines nothing there, since a row
    missing a cell of the only key is a witness; it re-densifies on rows
    where each row is total on one of two keys."""
    rows = _wide_rows(0.1)
    rel = Relation.from_values(_WIDE_SCHEMA, rows + rows[:20])
    dense_calls, packed = _wide_key_sorts(monkeypatch, rel, KeySet.of(range(12)))
    # violating_blocks: two re-densifies; the final sort calls _order directly
    assert dense_calls == [2, 0]
    # _split's two re-densifies, its final sort and its merge of the
    # incomplete rows' copies; and the maximal-block filter's one
    assert len(packed) == 5 and all(packed)

    # 2% missing, and a 13th column missing exactly on the rows total on
    # the first 12: the wide key has the fewer missing cells, so it goes
    # first, and satisfies stops after it, on the twins missing a12
    monkeypatch.undo()
    rows = [(*row, None if None not in row else "x") for row in _wide_rows(0.02)]
    rel = Relation.from_values(Schema(tuple(f"a{i}" for i in range(13))), rows + rows[:20])
    assert validation._plan(rel, KeySet.of(range(12), {12})) == [frozenset(range(12)), frozenset({12})]
    dense_calls, packed = _wide_key_sorts(monkeypatch, rel, KeySet.of(range(12), {12}))
    assert dense_calls == [2, 2]
    # per route, the wide round's four as above; violating_blocks then {a12}'s
    # sort and merge, and the filter's one
    assert len(packed) == 11 and all(packed)


def test_total_wide_key_re_densifies_and_stays_packed(monkeypatch):
    """The all-total path of ``_split``. The same key over the total wide
    rows is complete, so it is planned as two rounds of six columns that
    each fit a packed sort, and nothing re-densifies. Re-densifying on
    that path takes a key with missing cells whose surviving members are
    all total: below, a complete ``id`` column first leaves only 20 pairs
    of total rows, and the key's later columns outgrow the room of their
    20 blocks. Every ``_order`` call packs."""
    rows = _wide_rows(0.0)
    rel = Relation.from_values(_WIDE_SCHEMA, rows + rows[:20])
    dense_calls, packed = _wide_key_sorts(monkeypatch, rel, KeySet.of(range(12)))
    assert dense_calls == [0, 0]
    # per route, the final sort of each round; no row is in two blocks,
    # so the maximal-block filter sorts nothing
    assert len(packed) == 4 and all(packed)

    # rows late in the file have the highest codes, so twin 20 of them
    monkeypatch.undo()
    rows = _wide_rows(0.1)
    twins = [i for i, row in enumerate(rows) if None not in row][-20:]
    rel = Relation.from_values(
        Schema(("id", *_WIDE_SCHEMA.attributes)),
        [(str(i), *row) for i, row in enumerate(rows)] + [(str(i), *rows[i]) for i in twins],
    )
    assert rel.null_counts[0] == 0 and all(rel.null_counts[1:])
    dense_calls, packed = _wide_key_sorts(monkeypatch, rel, KeySet.of({0}, range(1, 13)))
    assert dense_calls == [1, 1]
    # per route, the id round's sort, then the key's re-densify and sort
    assert len(packed) == 6 and all(packed)
