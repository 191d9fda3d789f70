"""CSV ingestion and export with configurable missing-value tokens.

Cells are kept verbatim as strings; nothing is type-coerced. A cell whose
whitespace-trimmed form equals one of the configured null tokens becomes a
missing value (``None``). :func:`load_csv` reads the text once (a path as
UTF-8 without its byte-order mark, a stream as given) and cuts it into
cells in one pass: text with no quote, carriage return, NUL, blank line or
over-long line is cut by ``str.split``, which reads it exactly as
``csv.reader`` does, and any other text by ``csv.reader``. A line feed, a
CR-LF pair and a lone carriage return each end a record, in a path or a
stream. Each column's cells then go to the encoder
:meth:`Relation.from_values` also uses, which runs the null test once per
distinct cell and writes the relation's code matrix, its only storage.
Exporting decodes one column at a time and writes missing values as the
first configured token. It refuses a value whose trimmed text is a null
token, which would read back as missing, so an export/load round trip is
cell-identical.
"""

from __future__ import annotations

import csv
import io
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import Schema
from .relation import Relation

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
    """Malformed CSV input (empty file, blank first record, ragged rows,
    text that is not UTF-8 or that the csv module rejects, bad config)."""


@dataclass(frozen=True)
class IngestConfig:
    delimiter: str = ","
    null_tokens: tuple[str, ...] = ("?", "", "NULL")
    has_header: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "null_tokens", tuple(self.null_tokens))
        if len(self.delimiter) != 1:
            raise IngestError("delimiter must be a single character")
        if self.delimiter in '"\n\r':
            raise IngestError(f"delimiter {self.delimiter!r} is a quote or line break")
        for tok in self.null_tokens:
            if self.delimiter in tok:
                raise IngestError(f"null token {tok!r} contains the delimiter")
            if tok != tok.strip():
                # cells are trimmed before the test, so such a token never matches
                raise IngestError(f"null token {tok!r} has surrounding whitespace")


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


def _open(source: str | Path | io.TextIOBase):
    """A path opened as UTF-8 with any leading byte-order mark dropped,
    or a stream as given."""
    if isinstance(source, (str, Path)):
        return open(source, newline="", encoding="utf-8-sig")
    return nullcontext(source)


def _schema(first: list[str] | None, config: IngestConfig) -> Schema:
    if first is None:
        raise IngestError("empty csv input")
    if not first:
        raise IngestError("the first record is blank")
    return schema_from_header(first) if config.has_header else Schema(tuple(map(str, range(len(first)))))


def _split_cells(text: str, delimiter: str) -> tuple[list[str], np.ndarray] | None:
    """Every cell of ``text`` in one flat list, and each record's cell count,
    cut by ``str.split``; None unless that cuts it exactly as ``csv.reader``
    would: no quote, carriage return or NUL, no blank line and no line
    longer than ``csv.field_size_limit()``."""
    if '"' in text or "\r" in text or "\0" in text or "\n\n" in text or text.startswith("\n"):
        return None
    lines = text.split("\n")
    trailing = not lines[-1]  # the text is empty or ends with a line break
    if trailing:
        lines.pop()
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    counts = np.fromiter(map(str.count, lines, repeat(delimiter)), np.int64, len(lines))
    del lines  # the line strings go before the cell strings come
    cells = text.replace("\n", delimiter).split(delimiter)
    if trailing:
        cells.pop()
    return cells, counts + 1


def _reader_cells(text: str, delimiter: str) -> tuple[list[str], np.ndarray]:
    """:func:`_split_cells`' result for any text, read by ``csv.reader``."""
    try:
        records = list(csv.reader(io.StringIO(text, newline=""), delimiter=delimiter))
    except csv.Error as exc:
        raise IngestError(f"malformed csv: {exc}") from None
    return list(chain.from_iterable(records)), np.fromiter(map(len, records), np.int64, len(records))


def read_schema(source: str | Path | io.TextIOBase, config: IngestConfig = IngestConfig()) -> Schema:
    """The schema :func:`load_csv` gives a CSV, read from its first record only."""
    with _open(source) as fh:
        # a stream's lines cut again at every line break, as load_csv's text is
        lines = chain.from_iterable(io.StringIO(line, newline="") for line in fh)
        try:
            first = next(csv.reader(lines, delimiter=config.delimiter), None)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise IngestError(f"malformed csv: {exc}") from None
    return _schema(first, config)


def load_csv(source: str | Path | io.TextIOBase, config: IngestConfig = IngestConfig()) -> Relation:
    """Load a CSV file into a :class:`Relation`, reading its text once.

    Row ids are assigned in file order starting at 0. Raises
    :class:`IngestError` on an empty file, a blank first record, ragged
    rows, and text that is not UTF-8 or that the csv module rejects.
    """
    try:
        with _open(source) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise IngestError(f"malformed csv: {exc}") from None
    cells, lengths = _split_cells(text, config.delimiter) or _reader_cells(text, config.delimiter)
    del text
    schema = _schema(cells[: lengths[0]] if len(lengths) else None, config)
    width = len(schema)
    header = int(config.has_header)
    ragged = np.flatnonzero(lengths != width)
    if ragged.size:
        i = int(ragged[0])
        raise IngestError(f"row {i - header} has {lengths[i]} cells, expected {width}")
    start = width * header
    columns = (cells[start + j :: width] for j in range(width))
    rows = np.arange(len(lengths) - header, dtype=np.int64)
    return Relation._encode(schema, columns, rows, frozenset(config.null_tokens))


def write_csv(
    relation: Relation,
    target: str | Path | io.TextIOBase,
    config: IngestConfig = IngestConfig(),
) -> None:
    """Export a relation; missing values become ``config.null_tokens[0]``.

    Raises :class:`IngestError`, before writing anything, on a value that
    would read back as missing, and on missing values with no null token.
    """
    if not config.null_tokens and any(relation.null_counts):
        raise IngestError("relation has missing values but no null token is configured")
    nulls = frozenset(config.null_tokens)
    for name, values in zip(relation.schema.attributes, relation.dictionaries):
        value = next((v for v in values if v.strip() in nulls), None)
        if value is not None:
            raise IngestError(f"column {name!r} holds the value {value!r}, which would read back as missing")
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
    return DatasetStats(rows=len(relation), cols=len(relation.schema), nulls=sum(relation.null_counts))
