"""Relational data model for key-set integrity constraints.

A key set is a non-empty collection of keys, where each key is a non-empty
set of attributes. A relation satisfies a key set when every pair of
distinct rows is separated by at least one key: both rows are total on the
key (no missing value on its attributes) and their projections differ.

Missing values are represented as ``None``. Two ``None`` cells never count
as matching; this never has to be special-cased because every comparison
first requires totality on the attributes being compared.

Attributes are referred to by column index into a :class:`Schema`. An
attribute set is a plain ``frozenset[int]``. Display order is canonical:
attributes inside a key follow schema order, keys inside a key set are
sorted lexicographically by their index tuples, so formatted output is
stable and diffable.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "AttrSet",
    "KeySet",
    "KeySetFamily",
    "ParseError",
    "Relation",
    "ResourceLimit",
    "Row",
    "Schema",
    "attr_sort_key",
    "format_attr_name",
    "format_attr_set",
    "format_keyset",
    "format_schema",
    "parse_attr_set",
    "parse_keyset",
    "parse_keyset_lines",
    "parse_schema",
]

AttrSet = frozenset[int]


def attr_sort_key(attrs: AttrSet) -> tuple[int, ...]:
    """Canonical sort key for attribute sets: the sorted index tuple."""
    return tuple(sorted(attrs))


@dataclass(frozen=True)
class Schema:
    """An ordered, duplicate-free list of attribute names."""

    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.attributes:
            raise ValueError("a schema needs at least one attribute")
        for name in self.attributes:
            if not isinstance(name, str) or not name:
                raise ValueError(f"attribute names must be non-empty strings, got {name!r}")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("attribute names must be unique")

    @classmethod
    def of(cls, *names: str) -> "Schema":
        return cls(tuple(names))

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.attributes)}

    def __len__(self) -> int:
        return len(self.attributes)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"unknown attribute {name!r}") from None

    def name(self, index: int) -> str:
        return self.attributes[index]

    def attr_set(self, names: Iterable[str]) -> AttrSet:
        return frozenset(self.index(n) for n in names)

    def names(self, attrs: AttrSet) -> tuple[str, ...]:
        """Attribute names of ``attrs`` in schema order."""
        return tuple(self.attributes[i] for i in sorted(attrs))

    def all_attrs(self) -> AttrSet:
        return frozenset(range(len(self.attributes)))


@dataclass(frozen=True)
class KeySet:
    """A non-empty set of non-empty keys (attribute index sets)."""

    keys: frozenset[AttrSet]

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", frozenset(map(frozenset, self.keys)))
        if not self.keys:
            raise ValueError("a key set needs at least one key")
        if frozenset() in self.keys:
            raise ValueError("keys must be non-empty")
        # each distinct attribute is checked once, not once per key
        for a in frozenset().union(*self.keys):
            if not isinstance(a, int) or a < 0:
                raise ValueError(f"attribute indices must be non-negative ints, got {a!r}")

    @classmethod
    def of(cls, *keys: Iterable[int]) -> "KeySet":
        return cls(frozenset(frozenset(k) for k in keys))

    @cached_property
    def sorted_keys(self) -> tuple[AttrSet, ...]:
        """Keys in canonical order (lexicographic by sorted index tuple)."""
        return tuple(sorted(self.keys, key=attr_sort_key))

    @property
    def attributes(self) -> AttrSet:
        """Union of all keys."""
        return frozenset().union(*self.keys)

    def is_unary(self) -> bool:
        return all(len(k) == 1 for k in self.keys)

    def fits(self, schema: Schema) -> bool:
        return all(a < len(schema) for k in self.keys for a in k)

    def __iter__(self) -> Iterator[AttrSet]:
        return iter(self.sorted_keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: object) -> bool:
        return key in self.keys


KeySetFamily = tuple[KeySet, ...]


@dataclass(frozen=True)
class Row:
    """One tuple of a relation, as :attr:`Relation.rows` decodes it; ``None`` is missing."""

    row_id: int
    values: tuple[str | None, ...]

    def is_total(self, attrs: AttrSet) -> bool:
        return all(self.values[a] is not None for a in attrs)

    def projection(self, attrs: AttrSet) -> tuple[str | None, ...]:
        return tuple(self.values[a] for a in sorted(attrs))


@dataclass(frozen=True, eq=False)
class Relation:
    """A bag of rows over a schema, stored column-encoded.

    ``codes`` is a read-only, column-major int32 ``(rows, width)``
    matrix: each column's distinct strings get dense codes ``0, 1, ...``
    in order of first appearance, listed in ``dictionaries[column]``, and
    a missing value is ``-1``. Each column is contiguous, so validation
    reads a key column without striding across rows. ``row_ids``
    (read-only) makes duplicate rows distinct. Build relations with
    :meth:`from_values` or ``load_csv``, which share one encoder; copies
    and unpickled relations go through the constructor, which makes any
    matrix column-major and sets both arrays read-only.
    """

    schema: Schema
    codes: np.ndarray
    dictionaries: tuple[tuple[str, ...], ...]
    row_ids: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", np.asfortranarray(self.codes))
        self.codes.flags.writeable = self.row_ids.flags.writeable = False

    def __reduce__(self):
        return type(self), (self.schema, self.codes, self.dictionaries, self.row_ids)

    @classmethod
    def from_values(
        cls,
        schema: Schema,
        values: Iterable[Sequence[str | None]],
        row_ids: Sequence[int] | None = None,
    ) -> "Relation":
        rows = list(values)
        ids = list(range(len(rows)) if row_ids is None else row_ids)
        width = len(schema)
        if len(ids) != len(rows) or set(map(len, rows)) - {width}:
            # a strict zip raises on a row-id count that does not match
            row_id, row = next((i, r) for i, r in zip(ids, rows, strict=True) if len(r) != width)
            raise ValueError(f"row {row_id} has {len(row)} cells, schema has {width}")
        if len(set(ids)) < len(ids):
            raise ValueError(f"duplicate row id {next(i for i, c in Counter(ids).items() if c > 1)}")
        return cls._encode(schema, zip(*rows) if rows else [()] * width, np.array(ids, dtype=np.int64))

    @classmethod
    def _encode(
        cls,
        schema: Schema,
        columns: Iterable[Sequence[str | None]],
        row_ids: np.ndarray,
        null_tokens: frozenset[str] | None = None,
    ) -> "Relation":
        """The one encoder, shared by :meth:`from_values` and ``load_csv``.

        Takes one column at a time, each with a cell per row id. The null
        test runs once per distinct cell: with ``null_tokens``, a cell is
        missing when its trimmed text is one of them; without, when it is
        ``None``.
        """
        flat, dictionaries = [], []
        for column in columns:
            code = dict.fromkeys(column, -1)
            if null_tokens is None:
                kept = [cell for cell in code if cell is not None]
            else:
                kept = [cell for cell in code if cell.strip() not in null_tokens]
            code.update(zip(kept, range(len(kept))))
            flat += map(code.__getitem__, column)
            dictionaries.append(tuple(kept))
        # one conversion for all columns; per-column array writes cost more
        # than the encoding itself on a two-row witness. The transpose of
        # the column-by-column buffer is already column-major.
        codes = np.fromiter(flat, np.int32, len(flat)).reshape(len(dictionaries), len(row_ids)).T
        return cls(schema, codes, tuple(dictionaries), row_ids)

    @cached_property
    def rows(self) -> tuple[Row, ...]:
        """The rows, decoded from ``codes`` on first use; code -1 picks the trailing None."""
        columns = [map((*d, None).__getitem__, c) for d, c in zip(self.dictionaries, self.codes.T.tolist())]
        return tuple(map(Row, self.row_ids.tolist(), zip(*columns)))

    @cached_property
    def null_counts(self) -> tuple[int, ...]:
        """Missing cells per column, counted on first use, not at ingest."""
        return tuple(np.count_nonzero(self.codes < 0, axis=0).tolist())

    def _key(self) -> tuple:
        # codes follow first appearance, so equal keys mean equal rows
        return (self.schema, self.dictionaries, self.row_ids.tobytes(), self.codes.tobytes())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relation) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.row_ids)


# --------------------------------------------------------------------------
# Text grammar.
#
#   keyset   := '{' key (',' key)* '}'
#   key      := '{' attr (',' attr)* '}'
#   attr     := identifier | quoted
#   identifier matches [A-Za-z_][A-Za-z0-9_]*, quoted is double-quoted with
#   backslash escapes. Whitespace between tokens is ignored.


class ParseError(ValueError):
    """Syntax or name error in key-set text, with a character position.

    ``message`` is the text without the position suffix.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    def __reduce__(self):
        return type(self), (self.message, self.position)


class ResourceLimit(RuntimeError):
    """An exponential step outgrew its cap: ``limit`` names the step,
    ``size`` is how large it got and ``cap`` is the most allowed."""

    def __init__(self, limit: str, size: int, cap: int):
        # a size past int's decimal-string limit is shown as a power of two
        shown = size if size < 1 << 4096 else f"2**{size.bit_length() - 1} or more"
        super().__init__(f"{limit} has {shown} elements, cap is {cap}")
        self.limit = limit
        self.size = size
        self.cap = cap

    def __reduce__(self):
        return type(self), (self.limit, self.size, self.cap)


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# The body of a quoted name: non-quote characters and backslash escapes.
# Patterns here are written unrolled, runs of plain characters between
# the special ones, so the regex engine scans each run in one step.
_QUOTED_BODY = r'[^"\\]*(?:\\.[^"\\]*)*'
# One match per token; finditer skips the whitespace between tokens. The
# last group takes any other character, including a quote that opens no
# complete quoted name.
_TOKEN = re.compile(
    r'([{},])|"(' + _QUOTED_BODY + r')"|(' + _IDENT.pattern + r")|(\S)", re.DOTALL
)
_QUOTED_BODY_RE = re.compile(_QUOTED_BODY, re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)

# An attribute set as text, with quoted names skipped so that braces and
# commas inside them do not count, and the two shapes built from it.
_ATTR_SET = r'\{[^{}"]*(?:"' + _QUOTED_BODY + r'"[^{}"]*)*\}'
_ATTR_SET_RE = re.compile(_ATTR_SET, re.DOTALL)
_KEYSET_SHAPE = re.compile(
    r"\s*\{\s*(?:" + _ATTR_SET + r"\s*,\s*)*" + _ATTR_SET + r"\s*\}\s*", re.DOTALL
)
_ATTR_SET_SHAPE = re.compile(r"\s*" + _ATTR_SET + r"\s*", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    for m in _TOKEN.finditer(text):
        punct, quoted, ident, other = m.groups()
        at = m.start()
        if punct:
            tokens.append((punct, punct, at))
        elif ident:
            tokens.append(("name", ident, at))
        elif quoted:
            tokens.append(("name", _ESCAPE.sub(r"\1", quoted), at))
        elif quoted is not None:
            raise ParseError("empty quoted name", at)
        elif other != '"':
            raise ParseError(f"unexpected character {other!r}", at)
        else:
            # the body stops short of the end only at a final backslash
            stop = _QUOTED_BODY_RE.match(text, at + 1).end()
            if stop < len(text):
                raise ParseError("unterminated escape", stop)
            raise ParseError("unterminated quoted name", at)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], schema: Schema):
        self.tokens = tokens
        self.pos = 0
        self.schema = schema

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            what = repr(tok[1]) if tok[0] != "end" else "end of input"
            raise ParseError(f"expected {kind!r}, found {what}", tok[2])
        self.pos += 1
        return tok

    def attr(self) -> int:
        kind, value, at = self.take("name")
        try:
            return self.schema.index(value)
        except KeyError:
            raise ParseError(f"unknown attribute {value!r}", at) from None

    def attr_set(self, allow_empty: bool = False) -> AttrSet:
        _, _, open_at = self.take("{")
        if self.peek()[0] == "}":
            self.take("}")
            if allow_empty:
                return frozenset()
            raise ParseError("empty key", open_at)
        members = {self.attr()}
        while self.peek()[0] == ",":
            self.take(",")
            members.add(self.attr())
        self.take("}")
        return frozenset(members)

    def keyset(self) -> KeySet:
        _, _, open_at = self.take("{")
        if self.peek()[0] == "}":
            self.take("}")
            raise ParseError("empty key set", open_at)
        keys = {self.attr_set()}
        while self.peek()[0] == ",":
            self.take(",")
            keys.add(self.attr_set())
        self.take("}")
        return KeySet(frozenset(keys))

    def finish(self) -> None:
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])


def _parse_sets(
    text: str, schema: Schema, memo: dict[str, AttrSet], keyset: bool
) -> KeySet | AttrSet:
    """Parse key-set text (``keyset``) or one attribute set (``{}`` allowed).

    The shape regex checks the bracket structure with quoted names
    skipped. Each attribute-set text it finds is parsed once and kept in
    ``memo``, which the caller owns, so a caller parsing many texts passes
    one memo for all of them. Text that fails anywhere is parsed again as
    a whole, so every error carries its position in ``text``.
    """
    if (_KEYSET_SHAPE if keyset else _ATTR_SET_SHAPE).fullmatch(text):
        sets: list[AttrSet] = []
        for part in _ATTR_SET_RE.findall(text):
            attrs = memo.get(part)
            if attrs is None:
                try:
                    p = _Parser(_tokenize(part), schema)
                    attrs = p.attr_set(allow_empty=True)
                    p.finish()
                except ParseError:
                    break
                memo[part] = attrs
            if keyset and not attrs:
                break
            sets.append(attrs)
        else:
            return KeySet(frozenset(sets)) if keyset else sets[0]
    p = _Parser(_tokenize(text), schema)
    result = p.keyset() if keyset else p.attr_set(allow_empty=True)
    p.finish()
    return result


def parse_keyset(text: str, schema: Schema) -> KeySet:
    """Parse key-set text like ``{{room,time},{injury,time}}``."""
    return _parse_sets(text, schema, {}, keyset=True)


def parse_attr_set(text: str, schema: Schema) -> AttrSet:
    """Parse a single attribute set like ``{room,time}``; ``{}`` is allowed."""
    return _parse_sets(text, schema, {}, keyset=False)


def parse_keyset_lines(text: str, schema: Schema) -> KeySetFamily:
    """Parse one key set per non-blank line; ``#`` lines are comments."""
    memo: dict[str, AttrSet] = {}
    out: list[KeySet] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(_parse_sets(line, schema, memo, keyset=True))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc.message}", exc.position) from None
    return tuple(out)


def format_attr_name(name: str) -> str:
    if _IDENT.fullmatch(name):
        return name
    if "".join(name.splitlines()) != name:
        raise ValueError(f"attribute name {name!r} holds a line break, so its text would not read back")
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def format_attr_set(attrs: AttrSet, schema: Schema) -> str:
    inner = ",".join(format_attr_name(schema.name(a)) for a in sorted(attrs))
    return "{" + inner + "}"


def format_keyset(ks: KeySet, schema: Schema) -> str:
    """Canonical text form; ``parse_keyset`` inverts it exactly."""
    return "{" + ",".join(format_attr_set(k, schema) for k in ks.sorted_keys) + "}"


def parse_schema(text: str) -> Schema:
    """Parse a comma-separated attribute name list into a schema."""
    tokens = _tokenize(text)
    pos = 0
    names: dict[str, None] = {}
    while True:
        kind, value, at = tokens[pos]
        if kind != "name":
            raise ParseError("expected an attribute name", at)
        if value in names:
            raise ParseError(f"duplicate attribute name {value!r}", at)
        names[value] = None
        pos += 1
        kind, _, at = tokens[pos]
        if kind == "end":
            break
        if kind != ",":
            raise ParseError("expected ',' between attribute names", at)
        pos += 1
    return Schema(tuple(names))


def format_schema(schema: Schema) -> str:
    return ",".join(format_attr_name(name) for name in schema.attributes)
