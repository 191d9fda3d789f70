"""Relations: bags of rows over a schema, stored column-encoded in numpy.

Missing values are represented as ``None``. Two ``None`` cells never count
as matching; this never has to be special-cased because every comparison
first requires totality on the attributes being compared.

This is the only model module that imports numpy. Validation, ingest,
Armstrong relations and bench build on it; the reasoning layers
(:mod:`~keysets.core`, :mod:`~keysets.implication`,
:mod:`~keysets.inference`) do not, so importing them loads no array
library.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
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
