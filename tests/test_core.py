"""Data model and text grammar tests.

Pair-level goldens were derived by hand from the definition: a key
separates two rows iff both are total on it and their projections
differ. The grammar goldens pin the canonical output format, which
sorts attributes by schema position and keys lexicographically.
"""

import copy
import io
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CELLS, WARD_ROWS, by_id, keysets_st, pair_separated_by, pair_violates, relations_st
import keysets
from keysets import (
    KeySet,
    ParseError,
    Relation,
    ResourceLimit,
    Row,
    Schema,
    block_trace,
    derive_keyset,
    format_attr_set,
    format_derivation,
    format_keyset,
    format_schema,
    is_armstrong_unary,
    load_csv,
    parse_attr_set,
    parse_keyset,
    parse_keyset_lines,
    parse_schema,
    satisfies,
    violating_blocks,
    violating_tuples_naive,
    write_csv,
)
from keysets.core import attr_sort_key, format_attr_name

# --------------------------------------------------------------------------
# Public API.


def test_public_api_snapshot():
    """Adding or removing a public name has to edit this list."""
    assert keysets.__all__ == [
        "AntiKeyReport",
        "AttrSet",
        "BenchReport",
        "BlockSet",
        "CnfFormula",
        "CounterexampleWitness",
        "DatasetStats",
        "Decision",
        "Derivation",
        "DerivationStep",
        "Hypergraph",
        "ImplicationInstance",
        "IngestConfig",
        "IngestError",
        "KeySet",
        "KeySetFamily",
        "ParseError",
        "Relation",
        "ResourceLimit",
        "Row",
        "RuleError",
        "Schema",
        "anti_keys",
        "apply_composition",
        "apply_refinement",
        "apply_upward_closure",
        "armstrong_chain",
        "block_trace",
        "build_counterexample",
        "check_derivation",
        "dataset_stats",
        "derive_keyset",
        "first_invalid_step",
        "format_attr_set",
        "format_derivation",
        "format_keyset",
        "format_schema",
        "from_3sat",
        "gen_random_keyset",
        "gen_sequential_keysets",
        "generate_armstrong",
        "implies",
        "implies_bruteforce",
        "implies_unary",
        "is_armstrong_unary",
        "load_csv",
        "minimal_transversals",
        "parse_attr_set",
        "parse_derivation",
        "parse_dimacs",
        "parse_keyset",
        "parse_keyset_lines",
        "parse_schema",
        "read_schema",
        "run_bench",
        "satisfiable",
        "satisfies",
        "simulate_nary",
        "size_bounds",
        "synthetic_relation",
        "violating_blocks",
        "violating_tuples_naive",
        "violation_percentage",
        "write_csv",
    ]
    assert all(hasattr(keysets, name) for name in keysets.__all__)


# --------------------------------------------------------------------------
# Schema.


def test_schema_basics(ward_schema):
    assert len(ward_schema) == 5
    assert ward_schema.index("address") == 2
    assert ward_schema.name(3) == "injury"
    assert ward_schema.attr_set(("time", "room")) == frozenset({0, 4})
    assert ward_schema.names(frozenset({4, 0})) == ("room", "time")
    assert ward_schema.all_attrs() == frozenset(range(5))


def test_schema_unknown_attribute(ward_schema):
    with pytest.raises(KeyError, match="unknown attribute 'ward'"):
        ward_schema.index("ward")


def test_schema_validation():
    with pytest.raises(ValueError, match="at least one attribute"):
        Schema(())
    with pytest.raises(ValueError, match="unique"):
        Schema.of("a", "b", "a")
    with pytest.raises(ValueError, match="non-empty strings"):
        Schema.of("a", "")


# --------------------------------------------------------------------------
# KeySet.


def test_keyset_canonical_order():
    ks = KeySet.of({3, 4}, {0, 4}, {1})
    assert ks.sorted_keys == (frozenset({0, 4}), frozenset({1}), frozenset({3, 4}))
    assert list(ks) == list(ks.sorted_keys)
    assert len(ks) == 3
    assert frozenset({1}) in ks
    assert frozenset({2}) not in ks


def test_keyset_attributes_and_unary():
    ks = KeySet.of({0, 4}, {3, 4})
    assert ks.attributes == frozenset({0, 3, 4})
    assert not ks.is_unary()
    assert KeySet.of({0}, {2}).is_unary()


def test_keyset_fits(ward_schema):
    assert KeySet.of({0, 4}).fits(ward_schema)
    assert not KeySet.of({5}).fits(ward_schema)


def test_keyset_validation():
    with pytest.raises(ValueError, match="at least one key"):
        KeySet(frozenset())
    with pytest.raises(ValueError, match="keys must be non-empty"):
        KeySet.of(set())
    with pytest.raises(ValueError, match="non-negative ints"):
        KeySet.of({-1})


def test_attr_sort_key():
    assert sorted([frozenset({3}), frozenset({0, 4}), frozenset({0, 1})], key=attr_sort_key) == [
        frozenset({0, 1}),
        frozenset({0, 4}),
        frozenset({3}),
    ]


# --------------------------------------------------------------------------
# Rows and relations.


def test_row_totality_and_projection():
    row = Row(7, ("1", None, "x"))
    assert row.is_total(frozenset({0, 2}))
    assert not row.is_total(frozenset({1}))
    assert row.is_total(frozenset())
    assert row.projection(frozenset({2, 0})) == ("1", "x")


def test_relation_from_values_defaults(ward_schema):
    rel = Relation.from_values(ward_schema, [("1", "a", "b", "c", "d")])
    assert rel.rows[0].row_id == 0
    assert len(rel) == 1
    assert by_id(rel)[0].values == ("1", "a", "b", "c", "d")


def test_relation_validation(ward_schema):
    with pytest.raises(ValueError, match="duplicate row id"):
        Relation.from_values(ward_schema, [("1",) * 5, ("2",) * 5], row_ids=(3, 3))
    with pytest.raises(ValueError, match="has 2 cells, schema has 5"):
        Relation.from_values(ward_schema, [("1", "2")])
    with pytest.raises(ValueError):
        Relation.from_values(ward_schema, [("1",) * 5], row_ids=(1, 2))


def assert_codes_encode(rel: Relation, values, row_ids) -> None:
    """``rel`` stores exactly ``values`` under ``row_ids``: its rows decode
    to them, and each column's codes are dense in order of first
    appearance, equal exactly where the strings are, -1 where missing."""
    codes = rel.codes
    assert codes.dtype == np.int32 and codes.shape == (len(values), len(rel.schema))
    assert [row.values for row in rel.rows] == [tuple(v) for v in values]
    assert [row.row_id for row in rel.rows] == rel.row_ids.tolist() == list(row_ids)
    for j in range(len(rel.schema)):
        column = [v[j] for v in values]
        distinct = tuple(dict.fromkeys(v for v in column if v is not None))
        assert rel.dictionaries[j] == distinct
        assert codes[:, j].tolist() == [-1 if v is None else distinct.index(v) for v in column]


def test_relation_codes(ward, ward_schema):
    assert_codes_encode(ward, WARD_ROWS, (1, 2, 3, 4))
    assert ward.codes[:, 0].tolist() == [0, -1, 1, 0]
    assert ward.codes is ward.codes
    assert ward.codes.flags.f_contiguous
    assert not ward.codes.flags.writeable
    assert not ward.row_ids.flags.writeable
    with pytest.raises(ValueError):
        ward.codes[0, 0] = 5
    assert Relation.from_values(ward_schema, []).codes.shape == (0, 5)
    # same schema, row ids and dictionaries; only the codes differ
    one, other = (Relation.from_values(Schema.of("c"), [("0",), ("1",), (v,)]) for v in "01")
    assert one.dictionaries == other.dictionaries and one != other
    # load_csv shares the encoder, so it stores column-major codes too
    buf = io.StringIO()
    write_csv(ward, buf)
    buf.seek(0)
    read = load_csv(buf)
    assert read.codes.flags.f_contiguous and not read.codes.flags.writeable


def _answers(rel: Relation, sigma: list[KeySet]) -> tuple:
    """Everything a relation answers that reads its codes."""
    buf = io.StringIO()
    write_csv(rel, buf)
    checks = [
        (violating_blocks(rel, ks), satisfies(rel, ks), block_trace(rel, ks), violating_tuples_naive(rel, ks))
        for ks in sigma
    ]
    return rel.rows, rel.null_counts, buf.getvalue(), checks, is_armstrong_unary(rel, sigma)


def test_relation_copies_stay_read_only(ward, ward_schema, x1):
    """Copies, and a relation built from a row-major matrix, keep
    column-major, read-only codes, and answer exactly as the original."""
    sigma = [x1, parse_keyset("{{room,time}}", ward_schema)]
    assert not satisfies(ward, sigma[1])
    # this caches ward.rows, which must not leak into the copies
    expected = _answers(ward, sigma)
    row_major = np.ascontiguousarray(ward.codes)
    assert not row_major.flags.f_contiguous
    copies = (
        pickle.loads(pickle.dumps(ward)),
        copy.copy(ward),
        copy.deepcopy(ward),
        Relation(ward.schema, row_major, ward.dictionaries, ward.row_ids),
    )
    for again in copies:
        assert type(again) is Relation
        assert again.codes.flags.f_contiguous
        assert not again.codes.flags.writeable
        assert not again.row_ids.flags.writeable
        with pytest.raises(ValueError):
            again.codes[0, 0] = 5
        assert again == ward and hash(again) == hash(ward)
        assert _answers(again, sigma) == expected


@given(st.data())
def test_relation_codes_random(data):
    width = data.draw(st.integers(1, 5))
    schema = Schema(tuple(f"c{i}" for i in range(width)))
    values = data.draw(st.lists(st.tuples(*[st.sampled_from(CELLS)] * width), max_size=8))
    row_ids = data.draw(st.lists(st.integers(-5, 50), min_size=len(values), max_size=len(values), unique=True))
    rel = Relation.from_values(schema, values, row_ids=row_ids)
    assert_codes_encode(rel, values, row_ids)
    # value equality, with a hash consistent with it
    same = Relation.from_values(schema, [list(v) for v in values], row_ids=tuple(row_ids))
    assert rel == same and hash(rel) == hash(same)
    row_major = Relation(schema, np.ascontiguousarray(rel.codes), rel.dictionaries, rel.row_ids)
    assert row_major.codes.flags.f_contiguous
    assert row_major == rel and hash(row_major) == hash(rel) and row_major.rows == rel.rows
    if values:
        assert rel != Relation.from_values(schema, values, row_ids=[i + 100 for i in row_ids])
        edited = [("9",) + tuple(values[0][1:]), *values[1:]]
        assert rel != Relation.from_values(schema, edited, row_ids=row_ids)
    # a CSV round trip keeps every cell and numbers the rows from 0
    buf = io.StringIO()
    write_csv(rel, buf)
    buf.seek(0)
    assert_codes_encode(load_csv(buf), values, range(len(values)))


# --------------------------------------------------------------------------
# The pair oracles in conftest, pinned against the hospital and ward snapshots.


def test_pair_separation_hospital(hospital):
    rows = by_id(hospital)
    t1, t2, t3 = rows[1], rows[2], rows[3]
    name_address = frozenset({0, 1})
    assert not pair_separated_by(t1, t2, name_address)  # t2 misses address
    assert pair_separated_by(t1, t2, frozenset({2}))  # injuries differ
    assert not pair_separated_by(t1, t2, frozenset({3}))  # same time
    assert pair_separated_by(t1, t3, name_address)


def test_empty_attr_set_never_separates(hospital):
    rows = by_id(hospital)
    t1, t3 = rows[1], rows[3]
    assert not pair_separated_by(t1, t3, frozenset())


def test_is_x_total(hospital):
    t2 = by_id(hospital)[2]
    assert t2.is_total(frozenset({0, 3}))
    assert not t2.is_total(frozenset({0, 1}))


def test_pair_violates_ward(ward):
    ks = KeySet.of({0, 4})
    rows = by_id(ward)
    r1, r2, r3 = rows[1], rows[2], rows[3]
    assert pair_violates(r1, r2, ks)
    assert not pair_violates(r1, r3, ks)


def test_pair_violates_rejects_same_row(ward):
    r1 = by_id(ward)[1]
    with pytest.raises(ValueError, match="distinct rows"):
        pair_violates(r1, r1, KeySet.of({0}))


# --------------------------------------------------------------------------
# Grammar: parsing.


def test_parse_keyset_golden(ward_schema, x1):
    assert parse_keyset("{{room,time},{injury,time}}", ward_schema) == x1


def test_parse_keyset_whitespace(ward_schema, x1):
    assert parse_keyset(" { { time , room } ,\n\t{injury,time} } ", ward_schema) == x1


def test_parse_keyset_duplicates_collapse(ward_schema):
    assert parse_keyset("{{room},{room},{room,room}}", ward_schema) == KeySet.of({0})


def test_parse_quoted_names():
    schema = Schema.of("a->b", 'say "hi"', "x|y", "plain")
    ks = parse_keyset('{{"a->b",plain},{"say \\"hi\\""},{"x|y"}}', schema)
    assert ks == KeySet.of({0, 3}, {1}, {2})


def test_parse_attr_set(ward_schema):
    assert parse_attr_set("{room,time}", ward_schema) == frozenset({0, 4})
    assert parse_attr_set("{}", ward_schema) == frozenset()
    assert parse_attr_set(" { injury } ", ward_schema) == frozenset({3})


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("{}", "empty key set", 0),
        ("{{}}", "empty key", 1),
        ("{{bogus}}", "unknown attribute 'bogus'", 2),
        ("{{room}", "expected '}', found end of input", 7),
        ("{{room}}x", "unexpected trailing 'x'", 8),
        ("{{room;}}", "unexpected character ';'", 6),
        ('{{"abc}}', "unterminated quoted name", 2),
        ('{{"ab\\', "unterminated escape", 5),
        ('{{""}}', "empty quoted name", 2),
        ("room", "expected '{'", 0),
        ("{{room,}}", "expected 'name'", 7),
    ],
)
def test_parse_keyset_errors(ward_schema, text, message, position):
    with pytest.raises(ParseError) as err:
        parse_keyset(text, ward_schema)
    assert message in str(err.value)
    assert err.value.position == position


def test_parse_attr_set_rejects_trailing(ward_schema):
    with pytest.raises(ParseError, match="unexpected trailing"):
        parse_attr_set("{room} {time}", ward_schema)


def test_parse_keyset_lines(ward_schema, x1, x2):
    text = "# premises\n\n{{room,time},{injury,time}}\n  {{name,time},{injury,time}}\n"
    assert parse_keyset_lines(text, ward_schema) == (x1, x2)
    assert parse_keyset_lines("# only comments\n", ward_schema) == ()


def test_parse_keyset_lines_reports_line(ward_schema):
    with pytest.raises(ParseError, match="line 3: unknown attribute"):
        parse_keyset_lines("{{room}}\n\n{{bogus}}\n", ward_schema)


def test_parse_keyset_lines_states_the_position_once():
    with pytest.raises(ParseError) as err:
        parse_keyset_lines("{{a}}\n{{b}}", Schema.of("a"))
    assert str(err.value) == "line 2: unknown attribute 'b' (at position 2)"
    assert err.value.position == 2


def test_parse_error_pickles_and_copies():
    err = ParseError("unknown attribute 'b'", 7)
    for again in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
        assert type(again) is ParseError
        assert (again.message, again.position) == ("unknown attribute 'b'", 7)
        assert str(again) == str(err) == "unknown attribute 'b' (at position 7)"


def test_resource_limit_pickles_and_copies():
    err = ResourceLimit("choice product", 8, 7)
    assert isinstance(err, RuntimeError)
    for again in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
        assert type(again) is ResourceLimit
        assert (again.limit, again.size, again.cap) == ("choice product", 8, 7)
        assert str(again) == str(err) == "choice product has 8 elements, cap is 7"


# --------------------------------------------------------------------------
# Grammar: formatting.


def test_format_keyset_canonical(ward_schema, x1):
    assert format_keyset(x1, ward_schema) == "{{room,time},{injury,time}}"
    shuffled = KeySet.of({4, 3}, {4, 0})
    assert format_keyset(shuffled, ward_schema) == "{{room,time},{injury,time}}"


def test_format_attr_set(ward_schema):
    assert format_attr_set(frozenset({4, 0}), ward_schema) == "{room,time}"
    assert format_attr_set(frozenset(), ward_schema) == "{}"


def test_format_attr_name_quotes():
    assert format_attr_name("plain_1") == "plain_1"
    assert format_attr_name("a b") == '"a b"'
    assert format_attr_name('say "hi"') == '"say \\"hi\\""'
    assert format_attr_name("back\\slash") == '"back\\\\slash"'


# every boundary of str.splitlines
LINE_BREAKS = ("\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_names_with_line_breaks_are_not_written(brk):
    """The text forms are read line by line, so a name that would span two
    lines is refused rather than written as an unterminated quote."""
    name = f"a{brk}b"
    schema = Schema.of(name, "c")
    ks = KeySet.of({0}, {1})
    derivation = derive_keyset((ks,), ks)
    message = re.escape(f"attribute name {name!r} holds a line break")
    for write in (format_schema, lambda s: format_keyset(ks, s), lambda s: format_derivation(derivation, s)):
        with pytest.raises(ValueError, match=message):
            write(schema)
    with pytest.raises(ValueError, match="holds a line break"):
        format_attr_name(brk)


def test_schema_text_round_trip():
    schema = Schema.of("room", "a b", 'say "hi"')
    text = format_schema(schema)
    assert text == 'room,"a b","say \\"hi\\""'
    assert parse_schema(text) == schema


def test_parse_schema_golden():
    assert parse_schema("room, name ,time") == Schema.of("room", "name", "time")


def test_parse_schema_errors():
    with pytest.raises(ParseError, match="expected an attribute name"):
        parse_schema("room,,time")
    with pytest.raises(ParseError, match="expected ',' between attribute names"):
        parse_schema("room name")
    with pytest.raises(ParseError, match="expected an attribute name"):
        parse_schema("")
    with pytest.raises(ParseError, match="duplicate attribute name 'a'") as err:
        parse_schema('a,b,"a"')
    assert err.value.position == 4


# --------------------------------------------------------------------------
# Properties.

_NAMES = ("room", "name", "address", "injury", "time", "a b", 'q"uote')
_SCHEMA = Schema(_NAMES)


@given(keysets_st(len(_NAMES), max_keys=4, max_size=4))
def test_parse_inverts_format(ks):
    text = format_keyset(ks, _SCHEMA)
    assert parse_keyset(text, _SCHEMA) == ks
    assert format_keyset(parse_keyset(text, _SCHEMA), _SCHEMA) == text


@given(relations_st(max_rows=4), st.data())
def test_pair_separation_definitional(rel, data):
    if len(rel) < 2:
        return
    t, t2 = rel.rows[0], rel.rows[1]
    attrs = data.draw(st.frozensets(st.integers(0, len(rel.schema) - 1), max_size=4))
    expected = t.is_total(attrs) and t2.is_total(attrs) and t.projection(attrs) != t2.projection(attrs)
    assert pair_separated_by(t, t2, attrs) == expected
    assert pair_separated_by(t2, t, attrs) == pair_separated_by(t, t2, attrs)


@given(relations_st(max_rows=4), st.data())
def test_pair_violation_antitone_in_keys(rel, data):
    if len(rel) < 2:
        return
    t, t2 = rel.rows[0], rel.rows[1]
    ks = data.draw(keysets_st(len(rel.schema)))
    extra = data.draw(st.frozensets(st.integers(0, len(rel.schema) - 1), min_size=1, max_size=3))
    bigger = KeySet(ks.keys | {extra})
    assert pair_violates(t, t2, ks) == pair_violates(t2, t, ks)
    if pair_violates(t, t2, bigger):
        assert pair_violates(t, t2, ks)
