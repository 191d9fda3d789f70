"""Differential and fuzz tests for the text layer.

The library's regex scanners and per-call attribute-set memos must agree
with the character-by-character reference parsers in ``conftest``: the
same values on well-formed text, the same ``ParseError`` message and
position on malformed text. Well-formed inputs are formatted derivations
(from ``derive_keyset`` and ``simulate_nary``) over schemas whose quoted
names contain every separator of the derivation format; malformed inputs
are small mutations of them. Arbitrary text given to any parser must
return a value or raise ``ParseError``, never another exception.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    keysets_st,
    outcome,
    random_choice_map,
    random_family,
    random_keyset,
    reference_format_derivation,
    reference_parse_attr_set,
    reference_parse_derivation,
    reference_parse_keyset,
    reference_parse_schema,
    reference_split_quoted,
    reference_tokenize,
)
from keysets import (
    KeySet,
    ParseError,
    Schema,
    apply_composition,
    check_derivation,
    derive_keyset,
    format_attr_set,
    format_derivation,
    format_keyset,
    format_schema,
    parse_attr_set,
    parse_derivation,
    parse_dimacs,
    parse_keyset,
    parse_keyset_lines,
    parse_schema,
    simulate_nary,
)
from keysets.core import _tokenize
from keysets.inference import _split_quoted

# Pieces of attribute names: every separator of the derivation text form,
# the characters that force quoting, and plain identifier text.
NAME_PIECES = ("->", "|", ";", " with ", " => ", "{", "}", ",", '"', "\\", " ", "a", "b_1", "x2")
SEPARATORS = ("->", "|", ";", " with ", " => ")
# Characters the grammar gives a meaning, plus a few it rejects.
GRAMMAR_CHARS = tuple('{},"\\ |;->=:#\n\tapsx0129_') + (" with ", " => ", "schema: ", "premise ")

texts_st = st.text() | st.lists(st.sampled_from(GRAMMAR_CHARS), max_size=40).map("".join)

names_st = st.one_of(
    st.sampled_from(("a", "b", "x1", "not_x1", "p with q")),
    st.lists(st.sampled_from(NAME_PIECES), min_size=1, max_size=4).map("".join),
)
schemas_st = st.lists(names_st, min_size=1, max_size=12, unique=True).map(lambda ns: Schema(tuple(ns)))


@st.composite
def mutations_st(draw, text: str) -> str:
    """``text`` after one to three single-point inserts, deletes or replaces."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(GRAMMAR_CHARS))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        if kind == "insert":
            text = text[:at] + piece + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + piece + text[at + 1 :]
    return text


def _refine_randomly(rnd, ks: KeySet, rounds: int) -> KeySet:
    keys = set(ks.keys)
    for _ in range(rounds):
        big = sorted((k for k in keys if len(k) > 1), key=sorted)
        if not big:
            break
        members = sorted(rnd.choice(big))
        cut = rnd.randint(1, len(members) - 1)
        keys.discard(frozenset(members))
        keys |= {frozenset(members[:cut]), frozenset(members[cut - rnd.randint(0, 1) :])}
    return KeySet(frozenset(keys))


@st.composite
def derivations_st(draw):
    """A valid derivation and its schema: a binary replay of a random
    n-ary Composition, or a derived proof of a refined and extended
    composition result."""
    schema = draw(schemas_st)
    rnd = draw(st.randoms(use_true_random=False))
    width = len(schema)
    family = random_family(rnd, width, max_members=3)
    choice = random_choice_map(rnd, family)
    if draw(st.booleans()):
        return simulate_nary(family, choice), schema
    goal = _refine_randomly(rnd, apply_composition(family, choice), rnd.randint(0, 3))
    if rnd.random() < 0.5:
        goal = KeySet(goal.keys | random_keyset(rnd, width).keys)
    return derive_keyset(family, goal), schema


# --------------------------------------------------------------------------
# Differential tests against the reference parsers.


@given(texts_st)
@example('{{"ab\\')
@example('{{"a\\"}}')
@example('{""}')
@example('{"}')
def test_tokenize_matches_reference(text):
    assert outcome(_tokenize, text) == outcome(reference_tokenize, text)


@given(texts_st, st.sampled_from(SEPARATORS))
@example('a"b->c', "->")
@example('"a\\"->b"->c', "->")
@example('a\\"b" with c', " with ")
def test_split_quoted_matches_reference(text, sep):
    assert _split_quoted(text, sep) == reference_split_quoted(text, sep)


@given(schemas_st, st.data())
def test_keyset_and_schema_parsers_match_reference(schema, data):
    ks = data.draw(keysets_st(len(schema), max_keys=4, max_size=4))
    attrs = data.draw(st.sampled_from(ks.sorted_keys + (frozenset(),)))
    cases = (
        (format_keyset(ks, schema), ks, parse_keyset, reference_parse_keyset),
        (format_attr_set(attrs, schema), attrs, parse_attr_set, reference_parse_attr_set),
    )
    for text, value, parse, reference in cases:
        assert parse(text, schema) == reference(text, schema) == value
        bad = data.draw(mutations_st(text))
        assert outcome(parse, bad, schema) == outcome(reference, bad, schema)
    text = format_schema(schema)
    assert parse_schema(text) == reference_parse_schema(text) == schema
    bad = data.draw(mutations_st(text))
    assert outcome(parse_schema, bad) == outcome(reference_parse_schema, bad)


def _reference_keyset_lines(text: str, schema: Schema):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(reference_parse_keyset(line, schema))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", exc.position) from None
    return tuple(out)


@given(schemas_st, st.data())
def test_keyset_lines_match_reference(schema, data):
    # one memo serves every line, so repeated attribute sets across lines
    # must parse, and fail, exactly as they do line by line
    family = data.draw(st.lists(keysets_st(len(schema)), min_size=1, max_size=4))
    text = "\n".join(format_keyset(ks, schema) for ks in family + family[:1])
    assert parse_keyset_lines(text, schema) == tuple(family + family[:1])
    bad = data.draw(mutations_st(text))
    assert outcome(parse_keyset_lines, bad, schema) == outcome(_reference_keyset_lines, bad, schema)


@settings(max_examples=80)
@given(derivations_st(), st.data())
def test_derivation_text_matches_reference(made, data):
    d, schema = made
    text = format_derivation(d, schema)
    assert text == reference_format_derivation(d, schema)
    parsed = parse_derivation(text)
    assert parsed == reference_parse_derivation(text) == (d, schema)
    assert format_derivation(*parsed) == text
    assert check_derivation(parsed[0])
    bad = data.draw(mutations_st(text))
    assert outcome(parse_derivation, bad) == outcome(reference_parse_derivation, bad)


def test_empty_choice_entries_are_skipped():
    """A composition's choice list may hold empty entries between its
    semicolons; both parsers skip them, and the derivation still checks."""
    text = (
        "schema: a,b\npremise 0: {{a,b}}\n"
        "0: NaryComposition from p0 with {a,b}->{a,b}; ; => {{a,b}}\nconclusion: {{a,b}}\n"
    )
    parsed = parse_derivation(text)
    assert parsed == reference_parse_derivation(text) == parse_derivation(text.replace("; ;", ""))
    assert check_derivation(parsed[0])


_PROOF_LINES = (
    "schema: a,b",
    "premise 0: {{a}}",
    "0: UpwardClosure from p0 with {{b}} => {{a},{b}}",
    "conclusion: {{a},{b}}",
)


@pytest.mark.parametrize(
    "lineno, line, message, position",
    [
        (1, "schema: a,,b", "expected an attribute name", 2),
        (2, "premise 0: {{zz}}", "unknown attribute 'zz'", 2),
        (3, "0: UpwardClosure from p0 with {{c}} => {{a},{b}}", "unknown attribute 'c'", 2),
        (3, "0: Refinement from p0 with {a}->{a}|{q} => {{a}}", "unknown attribute 'q'", 1),
        (3, "0: UpwardClosure from p0 with {{b}} => {{a},{b}", "expected '}', found end of input", 8),
        (4, "conclusion: {{a},{b},}", "expected '{', found '}'", 9),
        # a whole-line error's position is the line number
        (3, "0: UpwardClosure from q0 with {{b}} => {{a},{b}}", "bad reference 'q0'", 3),
    ],
    ids=["schema", "premise", "upward-closure", "refinement", "step-conclusion", "conclusion", "whole-line"],
)
def test_derivation_errors_name_the_line(lineno, line, message, position):
    """An error inside a schema, key-set or attribute-set fragment names its
    line and keeps the fragment's position, as ``parse_keyset_lines`` does."""
    lines = list(_PROOF_LINES)
    lines[lineno - 1] = line
    text = "\n".join(lines) + "\n"
    expected = ("error", f"line {lineno}: {message} (at position {position})", position)
    assert outcome(parse_derivation, text) == outcome(reference_parse_derivation, text) == expected


# --------------------------------------------------------------------------
# Fuzzing: arbitrary text yields a value or a ParseError.

_FUZZ_SCHEMA = Schema.of("a", "b", "x1", "a b", 'q"uote', "p->q")


@settings(max_examples=200)
@given(texts_st)
@example("9" * 5000 + ": UpwardClosure from p0 with {{a}} => {{a}}")
@example("premise " + "9" * 5000 + ": {{a}}")
@example("0: UpwardClosure from p" + "9" * 5000 + " with {{a}} => {{a}}")
def test_parsers_raise_only_parse_errors(text):
    derivation_texts = (text, "schema: a,b\n" + text, "schema: a\npremise 0: {{a}}\n" + text)
    calls = [
        (parse_keyset, text, _FUZZ_SCHEMA),
        (parse_attr_set, text, _FUZZ_SCHEMA),
        (parse_keyset_lines, text, _FUZZ_SCHEMA),
        (parse_schema, text),
        (parse_dimacs, text),
        (parse_dimacs, "p cnf 3 2\n" + text),
        *((parse_derivation, t) for t in derivation_texts),
    ]
    for parse, *args in calls:
        outcome(parse, *args)
