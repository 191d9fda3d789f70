"""CSV ingestion and export with configurable missing-value tokens.

Cells are kept verbatim as strings; nothing is type-coerced. A cell whose
whitespace-trimmed form equals one of the configured null tokens becomes a
missing value (``None``). :func:`load_csv` reads a path as UTF-8 without
its byte-order mark, and a stream as given, 65,536 characters at a time. Each
chunk is cut after its last line feed and into cells by ``str.split``,
which reads text with no quote, carriage return, NUL, blank line or
over-long line exactly as ``csv.reader`` does. At the first chunk with
any of those, that chunk and the rest of the text go to ``csv.reader``,
so a quoted field may span chunks; a line feed, a CR-LF pair and a lone
carriage return each end a record. Each chunk's columns go to the running
encoder :meth:`Relation.from_values` also uses, which keeps one dict per
column, runs the null test once per distinct cell and builds the
relation's code matrix, its only storage, at the end. So the cell strings
of one chunk are alive at a time: about 2.3 bytes are allocated per input
byte at the peak on a 5.8 MB CSV of 8 columns, against 12.3 when the
whole text was cut into one list of cells. Reading a header loads no
numpy; loading a relation does.

Exporting decodes one column at a time and writes missing values as the
first configured token. It refuses a value whose trimmed text is a null
token, which would read back as missing, so an export/load round trip is
cell-identical.
"""

from __future__ import annotations

import codecs
import csv
import io
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import add
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

from .core import Schema

if TYPE_CHECKING:
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


# characters of text read and cut into cells at a time: larger chunks leave
# more freed cell strings behind in the allocator's arenas
_CHUNK = 1 << 16

# a batch of records: all their cells in one flat list, and each one's cell count
_Batch = tuple[list[str], list[int]]


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


@contextmanager
def _open(source: str | Path | io.TextIOBase) -> Iterator[TextIO]:
    """A path opened as UTF-8 with any leading byte-order mark dropped,
    or a stream as given. Text that is not UTF-8 raises
    :class:`IngestError`. The text layer decodes a block at a time and
    gives the byte position within that block; for a path it is given
    within the text after the mark, as one whole read gives it."""
    is_path = isinstance(source, (str, Path))
    with open(source, newline="", encoding="utf-8-sig") if is_path else nullcontext(source) as fh:
        mark = len(codecs.BOM_UTF8) if is_path and fh.buffer.peek(3).startswith(codecs.BOM_UTF8) else 0
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # the block the decoder was given ends where the bytes read so far end
            shift = fh.buffer.tell() - len(exc.object) - mark if is_path else 0
            raise IngestError(f"malformed csv: {_decode_error(exc, shift)}") from None


def _decode_error(exc: UnicodeDecodeError, shift: int) -> str:
    """``str(exc)`` with the byte position moved on by ``shift``."""
    start, end = exc.start + shift, exc.end + shift
    if exc.end - exc.start == 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{end - 1}"
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


def _schema(first: list[str] | None, config: IngestConfig) -> Schema:
    if first is None:
        raise IngestError("empty csv input")
    if not first:
        raise IngestError("the first record is blank")
    return schema_from_header(first) if config.has_header else Schema(tuple(map(str, range(len(first)))))


def _split_cells(text: str, delimiter: str) -> _Batch | None:
    """The records of ``text`` as one batch, cut by ``str.split``; None
    unless that cuts them exactly as ``csv.reader`` would: no quote,
    carriage return or NUL, no blank line and no line longer than
    ``csv.field_size_limit()``."""
    if '"' in text or "\r" in text or "\0" in text or "\n\n" in text or text.startswith("\n"):
        return None
    lines = text.split("\n")
    trailing = not lines[-1]  # the text is empty or ends with a line break
    if trailing:
        lines.pop()
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    lengths = list(map(add, map(str.count, lines, repeat(delimiter)), repeat(1)))
    del lines  # the line strings go before the cell strings come
    cells = text.replace("\n", delimiter).split(delimiter)
    if trailing:
        cells.pop()
    return cells, lengths


def _batches(fh: TextIO, delimiter: str) -> Iterator[_Batch]:
    """The records of ``fh`` in batches, read ``_CHUNK`` characters at a
    time and cut after each chunk's last line feed. From the first chunk
    that :func:`_split_cells` refuses, or whose unfinished line holds a
    carriage return or outgrows ``csv.field_size_limit()``, that chunk and
    the rest of ``fh`` go to ``csv.reader``."""
    rest = ""
    while True:
        chunk = fh.read(_CHUNK)
        text = rest + chunk
        # at the end of the input the last record needs no line feed
        cut = text.rfind("\n") + 1 if chunk else len(text)
        rest = text[cut:]
        if "\r" in rest or len(rest) > csv.field_size_limit():
            batch = None
        else:
            batch = _split_cells(text[:cut], delimiter)
        if batch is None:
            yield from _reader_batches(text, fh, delimiter)
            return
        if batch[1]:
            yield batch
        if not chunk:
            return


def _reader_batches(text: str, fh: TextIO, delimiter: str) -> Iterator[_Batch]:
    """:func:`_batches` for ``text`` and the rest of ``fh``, read by
    ``csv.reader`` in batches of about ``_CHUNK // 8`` cells."""
    records = csv.reader(_lines(text, fh), delimiter=delimiter)
    size = 1
    try:
        while batch := list(islice(records, size)):
            yield list(chain.from_iterable(batch)), list(map(len, batch))
            size = max(1, _CHUNK // 8 // max(1, len(batch[0])))
    except csv.Error as exc:
        while fh.read(_CHUNK):  # an undecodable byte further on is reported first
            pass
        raise IngestError(f"malformed csv: {exc}") from None


def _lines(text: str, fh: TextIO) -> Iterator[str]:
    """The lines of ``text`` and the rest of ``fh``, read ``_CHUNK``
    characters at a time and cut at every line feed, CR-LF pair and lone
    carriage return, as ``csv.reader`` needs them."""
    while chunk := fh.read(_CHUNK):
        text += chunk
        # a carriage return at the end may pair with a line feed still unread
        end = len(text) - text.endswith("\r")
        cut = max(text.rfind("\n", 0, end), text.rfind("\r", 0, end)) + 1
        yield from io.StringIO(text[:cut], newline="")
        text = text[cut:]
    yield from io.StringIO(text, newline="")


def _columns(batches: Iterator[_Batch], width: int, header: int) -> Iterator[list[list[str]]]:
    """Each batch's cells cut into ``width`` columns, without the header
    record. A record of another width raises, once the rest of the input
    has been read for the errors that take precedence."""
    row = -header  # the row number of the batch's first record
    skip = width * header
    for cells, lengths in batches:
        if lengths.count(width) != len(lengths):
            i = next(i for i, n in enumerate(lengths) if n != width)
            deque(batches, 0)
            raise IngestError(f"row {row + i} has {lengths[i]} cells, expected {width}")
        row += len(lengths)
        yield [cells[skip + j :: width] for j in range(width)]
        skip = 0


def read_schema(source: str | Path | io.TextIOBase, config: IngestConfig = IngestConfig()) -> Schema:
    """The schema :func:`load_csv` gives a CSV, read from its first record only."""
    with _open(source) as fh:
        try:
            first = next(csv.reader(_lines("", fh), delimiter=config.delimiter), None)
        except csv.Error as exc:
            raise IngestError(f"malformed csv: {exc}") from None
    return _schema(first, config)


def load_csv(source: str | Path | io.TextIOBase, config: IngestConfig = IngestConfig()) -> Relation:
    """Load a CSV file into a :class:`Relation`, encoding it a chunk at a time.

    Row ids are assigned in file order starting at 0. Raises
    :class:`IngestError` on an empty file, a blank first record, ragged
    rows, and text that is not UTF-8 or that the csv module rejects; the
    last two take precedence, as if the whole text were read first.
    """
    from .relation import Relation  # numpy loads with the first relation, not with a header

    with _open(source) as fh:
        batches = _batches(fh, config.delimiter)
        cells, lengths = next(batches, ([], []))
        try:
            schema = _schema(cells[: lengths[0]] if lengths else None, config)
        except IngestError:
            deque(batches, 0)
            raise
        columns = _columns(chain([(cells, lengths)], batches), len(schema), int(config.has_header))
        del cells
        return Relation._encode(schema, columns, None, frozenset(config.null_tokens))


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
