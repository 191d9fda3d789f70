"""CSV ingestion and export with configurable missing-value tokens.

Cells are kept verbatim as strings; nothing is type-coerced. A cell whose
whitespace-trimmed form equals one of the configured null tokens becomes a
missing value (``None``). :func:`load_csv` reads the file once and hands
the cells to :meth:`Relation.from_values`, which encodes them into the
relation's code matrix, its only storage. Exporting decodes one column at
a time and writes missing values as the first configured token, so a
load/export/load round trip is cell-identical.
"""

from __future__ import annotations

import csv
import io
from contextlib import closing, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .core import Relation, Schema

__all__ = [
    "DatasetStats",
    "IngestConfig",
    "IngestError",
    "dataset_stats",
    "load_csv",
    "read_schema",
    "schema_from_header",
    "write_csv",
]


class IngestError(ValueError):
    """Malformed CSV input (empty file, ragged rows, text that is not
    UTF-8 or that the csv module rejects, bad config)."""


@dataclass(frozen=True)
class IngestConfig:
    delimiter: str = ","
    null_tokens: tuple[str, ...] = ("?", "", "NULL")
    has_header: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "null_tokens", tuple(self.null_tokens))
        if len(self.delimiter) != 1:
            raise IngestError("delimiter must be a single character")
        for tok in self.null_tokens:
            if self.delimiter in tok:
                raise IngestError(f"null token {tok!r} contains the delimiter")


@dataclass(frozen=True)
class DatasetStats:
    rows: int
    cols: int
    nulls: int


def schema_from_header(header: Iterable[str]) -> Schema:
    """Schema from CSV header cells: trimmed, blanks become their column
    index, and a name already taken gets ``_<column index>`` appended
    until it is unique."""
    names: dict[str, None] = {}
    for i, raw in enumerate(header):
        name = raw.strip() or str(i)
        while name in names:
            name = f"{name}_{i}"
        names[name] = None
    return Schema(tuple(names))


def _records(source: str | Path | io.TextIOBase, config: IngestConfig) -> Iterator[list[str]]:
    """The CSV records of a stream, or of a path opened and closed here;
    text that is not UTF-8, or that the csv module rejects, raises
    :class:`IngestError`. A path is read as UTF-8 with any leading
    byte-order mark dropped; a stream is read as given."""
    is_path = isinstance(source, (str, Path))
    with open(source, newline="", encoding="utf-8-sig") if is_path else nullcontext(source) as fh:
        try:
            yield from csv.reader(fh, delimiter=config.delimiter)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise IngestError(f"malformed csv: {exc}") from None


def _schema(first: list[str] | None, config: IngestConfig) -> Schema:
    if first is None:
        raise IngestError("empty csv input")
    return schema_from_header(first) if config.has_header else Schema(tuple(map(str, range(len(first)))))


def read_schema(source: str | Path | io.TextIOBase, config: IngestConfig = IngestConfig()) -> Schema:
    """The schema :func:`load_csv` gives a CSV, read from its first record only."""
    with closing(_records(source, config)) as records:
        return _schema(next(records, None), config)


def load_csv(source: str | Path | io.TextIOBase, config: IngestConfig = IngestConfig()) -> Relation:
    """Load a CSV file into a :class:`Relation`, encoded in one pass.

    Row ids are assigned in file order starting at 0. Raises
    :class:`IngestError` on an empty file or on ragged rows.
    """
    records = list(_records(source, config))
    schema = _schema(records[0] if records else None, config)
    data = records[1:] if config.has_header else records
    width = len(schema)
    if set(map(len, data)) - {width}:
        i, record = next((i, r) for i, r in enumerate(data) if len(r) != width)
        raise IngestError(f"row {i} has {len(record)} cells, expected {width}")
    # the null test runs once per distinct cell text
    nulls = set(config.null_tokens)
    missing = {cell for cell in set().union(*data) if cell.strip() in nulls}
    if missing:
        data = [[None if cell in missing else cell for cell in record] for record in data]
    return Relation.from_values(schema, data)


def write_csv(
    relation: Relation,
    target: str | Path | io.TextIOBase,
    config: IngestConfig = IngestConfig(),
) -> None:
    """Export a relation; missing values become ``config.null_tokens[0]``."""
    if not config.null_tokens and (relation.codes < 0).any():
        raise IngestError("relation has missing values but no null token is configured")
    null_out = config.null_tokens[0] if config.null_tokens else ""
    # decoded one column at a time; code -1 picks the trailing null token
    columns = [map((*d, null_out).__getitem__, c) for d, c in zip(relation.dictionaries, relation.codes.T.tolist())]
    is_path = isinstance(target, (str, Path))
    with open(target, "w", newline="", encoding="utf-8") if is_path else nullcontext(target) as fh:
        writer = csv.writer(fh, delimiter=config.delimiter, lineterminator="\n")
        if config.has_header:
            writer.writerow(relation.schema.attributes)
        writer.writerows(zip(*columns))


def dataset_stats(relation: Relation) -> DatasetStats:
    nulls = int((relation.codes < 0).sum())
    return DatasetStats(rows=len(relation), cols=len(relation.schema), nulls=nulls)
