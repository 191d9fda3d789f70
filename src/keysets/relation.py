"""Relations: bags of rows over a schema, stored column-encoded in numpy.

Missing values are represented as ``None``. Two ``None`` cells never count
as matching; this never has to be special-cased because every comparison
first requires totality on the attributes being compared.

This is the only model module that imports numpy. Validation, ingest,
Armstrong relations and bench build on it; the reasoning layers
(:mod:`~keysets.core`, :mod:`~keysets.implication`,
:mod:`~keysets.inference`) and the key-set generators
(:mod:`~keysets.families`) do not, so importing them loads no array
library.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from typing import Iterable, Sequence

import numpy as np

from .core import Schema

__all__ = ["Relation", "Row"]


@dataclass(frozen=True)
class Row:
    """One tuple of a relation, as :attr:`Relation.rows` decodes it; ``None`` is missing."""

    row_id: int
    values: tuple[str | None, ...]


@dataclass(frozen=True, eq=False)
class Relation:
    """A bag of rows over a schema, stored column-encoded.

    ``codes`` is a read-only, column-major int32 ``(rows, width)``
    matrix: each column's distinct strings get dense codes ``0, 1, ...``
    in order of first appearance, listed in ``dictionaries[column]``, and
    a missing value is ``-1``. Each column is contiguous, so validation
    reads a key column without striding across rows. ``row_ids``
    (read-only) makes duplicate rows distinct. Build relations with
    :meth:`from_values` or ``load_csv``, which share one encoder, or, for
    a chain of rows that each repeat or replace the last one's values,
    :meth:`_from_draws`; copies and unpickled relations go through the
    constructor, which makes any matrix column-major and sets both arrays
    read-only.
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
        ids = range(len(rows)) if row_ids is None else list(row_ids)
        width = len(schema)
        if len(ids) != len(rows) or set(map(len, rows)) - {width}:
            # a strict zip raises on a row-id count that does not match
            row_id, row = next((i, r) for i, r in zip(ids, rows, strict=True) if len(r) != width)
            raise ValueError(f"row {row_id} has {len(row)} cells, schema has {width}")
        if row_ids is not None and len(set(ids)) < len(ids):
            raise ValueError(f"duplicate row id {next(i for i, c in Counter(ids).items() if c > 1)}")
        # row positions need no conversion: the encoder numbers its rows
        id_array = None if row_ids is None else np.array(ids, dtype=np.int64)
        return cls._encode(schema, [zip(*rows) if rows else [()] * width], id_array)

    @classmethod
    def _encode(
        cls,
        schema: Schema,
        chunks: Iterable[Iterable[Sequence[str | None]]],
        row_ids: np.ndarray | None = None,
        null_tokens: frozenset[str] | None = None,
    ) -> "Relation":
        """The one encoder, shared by :meth:`from_values` and ``load_csv``.

        Takes the rows a chunk at a time, at least one chunk, each as one
        sequence of cells per column. A column's first chunk starts its
        dict from cell to code, and later chunks add only the cells it
        lacks, so codes follow first appearance in the whole input and the
        null test runs once per distinct cell: with ``null_tokens``, a cell
        is missing when its trimmed text is one of them; without, when it
        is ``None``. ``row_ids`` defaults to the row positions.
        """
        codes: list[dict[str | None, int]] = []
        dictionaries: list[list[str]] = []
        parts = []
        for columns in chunks:
            flat: list[int] = []
            first = not codes
            if first:  # every cell of the first chunk is new
                columns = list(columns)
                codes = list(map(dict.fromkeys, columns, repeat(-1)))
                dictionaries = [[] for _ in codes]
            for column, code, kept in zip(columns, codes, dictionaries):
                if first:
                    fresh = code
                else:
                    start = len(flat)
                    # most chunks bring a column no cell it lacks (173 of the 256
                    # later chunk-columns of validate-bulk's CSV), so encode with
                    # the codes it has and look for new cells only on a miss
                    try:
                        flat += map(code.__getitem__, column)
                        continue
                    except KeyError:
                        del flat[start:]
                    fresh = [cell for cell in dict.fromkeys(column) if cell not in code]
                    code.update(zip(fresh, repeat(-1)))
                if null_tokens is not None:
                    new = [cell for cell in fresh if cell.strip() not in null_tokens]
                else:  # a copy and one removal cost less than a comprehension
                    new = list(fresh)
                    if None in new:
                        new.remove(None)
                code.update(zip(new, count(len(kept))))
                kept += new
                flat += map(code.__getitem__, column)
            # one conversion per chunk for all its columns; per-column array
            # writes cost more than the encoding itself on a two-row witness
            parts.append(np.fromiter(flat, np.int32, len(flat)).reshape(len(codes), -1))
        # the transpose of the column-by-column buffer is already column-major
        matrix = (parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)).T
        ids = np.arange(len(matrix), dtype=np.int64) if row_ids is None else row_ids
        return cls(schema, matrix, tuple(map(tuple, dictionaries)), ids)

    @classmethod
    def _from_draws(cls, schema: Schema, draws: np.ndarray, prefixes: Sequence[str]) -> "Relation":
        """A total chain relation, one row more than ``draws``, a boolean
        ``(rows - 1, width)`` mask. The first row holds ``<prefix>0`` in
        each column; row ``i + 1`` repeats row ``i`` except where
        ``draws[i]`` is set, where the column takes its next value
        ``<prefix>1``, ``<prefix>2``, .... A column's codes are then the
        running count of its draws, which numbers its values in order of
        first appearance, as :meth:`_encode` does, without a cell to read.
        """
        codes = np.zeros((len(draws) + 1, len(schema)), dtype=np.int32, order="F")
        np.cumsum(draws, axis=0, dtype=np.int32, out=codes[1:])
        dictionaries = tuple(tuple(f"{p}{k}" for k in range(top + 1)) for p, top in zip(prefixes, codes[-1].tolist()))
        return cls(schema, codes, dictionaries, np.arange(len(codes), dtype=np.int64))

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
