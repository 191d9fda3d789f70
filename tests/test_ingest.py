"""CSV ingestion and export tests.

The accident-ward snapshot doubles as the round-trip fixture: it has
quoted cells containing the delimiter ("Sunday, 19") and four missing
values written as "?". Quote-free text is cut by ``str.split`` and any
other text by ``csv.reader``; a differential test holds the two routes
to the same relations and errors. Text is read a chunk at a time, and
another differential test, with the chunk patched down to a few
characters, holds the chunked reading to a whole-text reference.
"""

import codecs
import csv
import io
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import WARD_CSV, WARD_ROWS
from keysets import ingest
from keysets import (
    DatasetStats,
    IngestConfig,
    IngestError,
    Relation,
    Schema,
    dataset_stats,
    load_csv,
    read_schema,
    write_csv,
)
from keysets.ingest import schema_from_header

BULK_CARDS = (3, 8, 30, 120, 600, 3_000, 15_000, 20_000)


def load_text(text: str, config: IngestConfig = IngestConfig()) -> Relation:
    return load_csv(io.StringIO(text), config)


def load_by_reader(text: str, config: IngestConfig = IngestConfig()) -> Relation:
    """``load_csv`` with every text sent to ``csv.reader``."""
    with mock.patch.object(ingest, "_split_cells", return_value=None):
        return load_text(text, config)


def outcome(load, text: str, config: IngestConfig):
    try:
        return load(text, config)
    except IngestError as exc:
        return str(exc)


def test_load_ward_csv(ward_schema):
    rel = load_text(WARD_CSV)
    assert rel.schema == ward_schema
    assert tuple(row.values for row in rel.rows) == WARD_ROWS
    assert tuple(row.row_id for row in rel.rows) == (0, 1, 2, 3)


def test_dataset_stats():
    rel = load_text(WARD_CSV)
    assert "null_counts" not in vars(rel)  # counted on first use, not at ingest
    assert dataset_stats(rel) == DatasetStats(rows=4, cols=5, nulls=4)
    assert rel.null_counts == (1, 1, 2, 0, 0)


def test_load_from_path(tmp_path, ward_schema):
    path = tmp_path / "ward.csv"
    path.write_text(WARD_CSV, encoding="utf-8")
    assert load_csv(path).schema == ward_schema
    assert read_schema(path) == read_schema(str(path)) == ward_schema
    assert load_csv(str(path)).rows == load_text(WARD_CSV).rows


def test_byte_order_mark_dropped_from_paths(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfroom,time\n1,2\n1,3\n")
    assert read_schema(path) == Schema.of("room", "time")
    rel = load_csv(path)
    assert rel.schema == Schema.of("room", "time")
    out = tmp_path / "out.csv"
    write_csv(rel, out)
    assert out.read_bytes() == b"room,time\n1,2\n1,3\n"
    # a stream is read as given, mark included, by either tokenizer
    assert read_schema(io.StringIO("\ufeffroom,time\n")) == Schema.of("\ufeffroom", "time")
    text = "\ufeffroom,time\n1,2\n"
    assert load_text(text).schema == load_by_reader(text).schema == Schema.of("\ufeffroom", "time")


def test_round_trip_is_cell_identical(tmp_path):
    rel = load_text(WARD_CSV)
    path = tmp_path / "out.csv"
    write_csv(rel, path)
    again = load_csv(path)
    assert again.schema == rel.schema
    assert tuple(r.values for r in again.rows) == tuple(r.values for r in rel.rows)


def test_write_to_stream():
    rel = load_text(WARD_CSV)
    buf = io.StringIO()
    write_csv(rel, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "room,name,address,injury,time"
    assert lines[1] == '1,Miller,?,cardiac infarct,"Sunday, 19"'
    assert lines[2] == '?,?,?,skull fracture,"Monday, 19"'


def test_write_without_header():
    rel = load_text(WARD_CSV)
    buf = io.StringIO()
    write_csv(rel, buf, IngestConfig(has_header=False))
    assert len(buf.getvalue().splitlines()) == len(rel)


def test_write_with_no_null_tokens():
    total = Relation.from_values(Schema.of("a", "b"), [("1", "2")])
    buf = io.StringIO()
    write_csv(total, buf, IngestConfig(null_tokens=()))
    assert buf.getvalue() == "a,b\n1,2\n"
    holed = Relation.from_values(Schema.of("a", "b"), [("1", None)])
    with pytest.raises(IngestError, match="no null token"):
        write_csv(holed, io.StringIO(), IngestConfig(null_tokens=()))


def test_write_refuses_a_value_that_reads_back_as_missing():
    rel = Relation.from_values(Schema.of("a", "b"), [("?", "x"), (None, "y")])
    buf = io.StringIO()
    with pytest.raises(IngestError, match=r"column 'a' holds the value '\?'"):
        write_csv(rel, buf)
    assert buf.getvalue() == ""  # refused before the header is written
    # trimmed first, as load_csv trims before its null test
    padded = Relation.from_values(Schema.of("a", "b"), [("1", " NULL ")])
    with pytest.raises(IngestError, match="column 'b' holds the value ' NULL '"):
        write_csv(padded, io.StringIO())
    # with other tokens the value is plain text, and the round trip holds
    config = IngestConfig(null_tokens=("-",))
    write_csv(rel, buf, config)
    assert buf.getvalue() == "a,b\n?,x\n-,y\n"
    buf.seek(0)
    assert load_csv(buf, config).rows == rel.rows


def test_null_tokens_trimmed_before_matching():
    rel = load_text("a,b\n ? ,NULL\nx, y \n")
    assert rel.rows[0].values == (None, None)
    assert rel.rows[1].values == ("x", " y ")  # non-null cells stay verbatim


def test_custom_null_tokens():
    config = IngestConfig(null_tokens=("-",))
    rel = load_text("a,b\n-,?\n", config)
    assert rel.rows[0].values == (None, "?")


def test_custom_delimiter():
    config = IngestConfig(delimiter=";", null_tokens=("?",))
    rel = load_text("a;b\n1;?\n", config)
    assert rel.rows[0].values == ("1", None)


def test_no_header_names_are_indices():
    rel = load_text("1,2\n3,4\n", IngestConfig(has_header=False))
    assert rel.schema == Schema.of("0", "1")
    assert len(rel) == 2


def test_header_only_file_is_empty_relation():
    rel = load_text("a,b\n")
    assert len(rel) == 0
    assert rel.schema == Schema.of("a", "b")


def test_empty_input_rejected():
    with pytest.raises(IngestError, match="empty csv input"):
        load_text("")
    with pytest.raises(IngestError, match="empty csv input"):
        read_schema(io.StringIO(""))


def test_unreadable_records_rejected(tmp_path):
    # the csv module refuses a field over its 131,072-character limit
    long_cell = "a,b\n" + "x" * 200_000 + ",1\n"
    with pytest.raises(IngestError, match="malformed csv: field larger than field limit"):
        load_text(long_cell)
    with pytest.raises(IngestError, match="malformed csv: field larger"):
        read_schema(io.StringIO("x" * 200_000 + "\n"))
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"a\n\xe9\n")
    with pytest.raises(IngestError, match="malformed csv: 'utf-8' codec can't decode"):
        load_csv(latin1)


def test_ragged_row_rejected():
    with pytest.raises(IngestError, match="row 1 has 3 cells, expected 2"):
        load_text("a,b\n1,2\n1,2,3\n")


def test_schema_from_header_cleanup():
    schema = schema_from_header((" room ", "", "name", "name", "  "))
    assert schema == Schema.of("room", "1", "name", "name_3", "4")
    # the third column's first suffix, a_2, is already the first column's name
    assert schema_from_header(("a_2", "a", "a")) == Schema.of("a_2", "a", "a_2_2")
    assert schema_from_header(("1", "", "1_1")) == Schema.of("1", "1_1", "1_1_2")
    rel = load_text("a_2,a,a\nx,y,z\n")
    assert rel.schema == Schema.of("a_2", "a", "a_2_2")
    assert rel.rows[0].values == ("x", "y", "z")


def test_config_validation():
    with pytest.raises(IngestError, match="single character"):
        IngestConfig(delimiter=",,")
    with pytest.raises(IngestError, match="contains the delimiter"):
        IngestConfig(delimiter=",", null_tokens=("a,b",))
    IngestConfig(delimiter=";", null_tokens=("a,b",))  # fine with another delimiter


@pytest.mark.parametrize("delimiter", ['"', "\n", "\r"])
def test_quote_and_line_break_delimiters_rejected(delimiter):
    with pytest.raises(IngestError, match="is a quote or line break"):
        IngestConfig(delimiter=delimiter)


def test_null_tokens_with_surrounding_whitespace_rejected(tmp_path):
    # a trimmed cell never equals " NA", so its missing cells would come back as text
    for token in (" NA", "NA ", "\tNA", " "):
        with pytest.raises(IngestError, match="has surrounding whitespace"):
            IngestConfig(null_tokens=(token,))
    config = IngestConfig(null_tokens=("NA",))
    rel = load_text("a,b\n1, NA \n2,x\n", config)
    assert rel.rows[0].values == ("1", None)
    path = tmp_path / "out.csv"
    write_csv(rel, path, config)
    assert path.read_text(encoding="utf-8") == "a,b\n1,NA\n2,x\n"
    assert load_csv(path, config) == rel


@pytest.mark.parametrize("has_header", [True, False])
def test_blank_first_record_rejected(tmp_path, has_header):
    config = IngestConfig(has_header=has_header)
    path = tmp_path / "blank.csv"
    path.write_text("\na,b\n1,2\n", encoding="utf-8")
    for source in (path, io.StringIO("\na,b\n1,2\n")):
        with pytest.raises(IngestError, match="the first record is blank"):
            load_csv(source, config)
    with pytest.raises(IngestError, match="the first record is blank"):
        read_schema(path, config)


# --------------------------------------------------------------------------
# The two tokenizers.


# quote-free cells; one may hold another delimiter, a null token or spaces
CELLS = st.text(alphabet="ab ?NUL-,;|\t", max_size=4)


@st.composite
def quote_free_csv(draw):
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    width = draw(st.integers(1, 4))
    records = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=6))
    if records and draw(st.booleans()):  # one ragged record
        i = draw(st.integers(0, len(records) - 1))
        records[i] = records[i][:-1] if draw(st.booleans()) else [*records[i], draw(CELLS)]
    text = "\n".join(map(delimiter.join, records)) + ("\n" if draw(st.booleans()) else "")
    tokens = draw(st.lists(st.sampled_from(["?", "", "NULL", "NA", "-"]), unique=True, max_size=3))
    return text, IngestConfig(delimiter=delimiter, null_tokens=tuple(tokens), has_header=draw(st.booleans()))


@given(quote_free_csv())
def test_split_and_reader_routes_agree(case):
    text, config = case
    if "\n\n" not in text and not text.startswith("\n"):
        assert ingest._split_cells(text, config.delimiter) is not None
    split = outcome(load_text, text, config)
    assert split == outcome(load_by_reader, text, config)
    if isinstance(split, Relation):
        # the encoder as from_values runs it on csv.reader's records
        records = list(csv.reader(io.StringIO(text), delimiter=config.delimiter))
        data = records[1:] if config.has_header else records
        nulls = set(config.null_tokens)
        values = [[None if cell.strip() in nulls else cell for cell in record] for record in data]
        assert split == Relation.from_values(split.schema, values)


@pytest.mark.parametrize(
    "text, expected",
    [
        (WARD_CSV, WARD_ROWS),
        ("a,b\r\n1,?\r\n", (("1", None),)),
        ("a,b\r1,2\r", (("1", "2"),)),
        ("a,b\n1,x\0y\n", (("1", "x\0y"),)),
        ("a,b\n1,2\n\n3,4\n", "row 1 has 0 cells, expected 2"),
        ("a,b\n1,2\n" + "x" * 200_000 + ",1\n", "malformed csv: field larger than field limit (131072)"),
        ('a,b\n1,"2\n3"\n', (("1", "2\n3"),)),
    ],
)
def test_texts_for_the_reader_route(text, expected):
    assert ingest._split_cells(text, ",") is None
    got = outcome(load_text, text, IngestConfig())
    if isinstance(got, Relation):
        assert read_schema(io.StringIO(text)) == got.schema
        got = tuple(row.values for row in got.rows)
    assert got == expected
    assert outcome(load_by_reader, text, IngestConfig()) == outcome(load_text, text, IngestConfig())


def test_split_route_takes_lines_up_to_the_field_limit():
    limit = csv.field_size_limit()
    text = "a\n" + "x" * limit + "\n"
    assert ingest._split_cells(text, ",") is not None
    assert load_text(text) == load_by_reader(text)
    assert ingest._split_cells(text + "y" * (limit + 1), ",") is None


def test_load_peak_memory_per_input_byte(tmp_path):
    # a csv.reader loader that rebuilds every row with its nulls peaks at
    # 18.2 bytes per input byte on a 2.1 MB CSV of this shape
    path = write_bulk_csv(tmp_path / "bulk.csv", 20_000)
    rel, peak = traced_load(path)
    assert rel.codes.shape == (20_000, 8)
    assert peak / path.stat().st_size <= 18.2


def write_bulk_csv(path, rows: int):
    """``rows`` random rows over 8 columns of ``BULK_CARDS`` values each."""
    rng = random.Random(0)
    lines = ["A1,A2,A3,A4,A5,A6,A7,A8"]
    lines += [",".join(f"a{j}_{rng.randrange(c)}" for j, c in enumerate(BULK_CARDS, 1)) for _ in range(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def traced_load(path) -> tuple[Relation, int]:
    """``load_csv(path)`` and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        rel = load_csv(path)
        return rel, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunked_load_peak_memory_per_input_byte(tmp_path):
    # reading the whole text and cutting it into one list of cells peaks at
    # 12.3 bytes per input byte on this 4.8 MB file; chunks of it at 2.5
    path = write_bulk_csv(tmp_path / "bulk.csv", 90_000)
    rel, peak = traced_load(path)
    assert rel.codes.shape == (90_000, 8)
    assert peak / path.stat().st_size <= 4


# --------------------------------------------------------------------------
# Chunked reading.


def reference_load(data: str | bytes, config: IngestConfig) -> Relation | str:
    """``load_csv``'s answer from the whole text at once: decode it (bytes
    are a file, read as UTF-8 with a leading byte-order mark dropped; a
    str is a stream's text, kept as given), cut it with one ``csv.reader``
    pass, check the first record and every record's width, and encode
    with ``from_values``. An error is its message."""
    try:
        text = data if isinstance(data, str) else data.decode("utf-8-sig")
        records = list(csv.reader(io.StringIO(text, newline=""), delimiter=config.delimiter))
    except (UnicodeDecodeError, csv.Error) as exc:
        return f"malformed csv: {exc}"
    if not records:
        return "empty csv input"
    if not records[0]:
        return "the first record is blank"
    width, header = len(records[0]), int(config.has_header)
    for i, record in enumerate(records):
        if len(record) != width:
            return f"row {i - header} has {len(record)} cells, expected {width}"
    schema = schema_from_header(records[0]) if header else Schema(tuple(map(str, range(width))))
    nulls = set(config.null_tokens)
    return Relation.from_values(schema, [[None if c.strip() in nulls else c for c in r] for r in records[header:]])


# a cell: mostly plain text, sometimes quoted across line breaks, a NUL or a quote alone
CHUNK_CELLS = st.one_of(
    st.text(alphabet="ab ?NUL-,;", max_size=3),
    st.text(alphabet="ab ?", max_size=2),
    st.sampled_from(['"x,y"', '"a\nb"', '"c\r\nd"', '"e""f"', '"g\rh"', '"?"', '"', "x\0y"]),
)
# a record's end: mostly a line feed, sometimes CR-LF, a lone CR or a blank line after it
LINE_ENDS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\n\n"])


@st.composite
def chunked_csv(draw):
    delimiter = draw(st.sampled_from([",", ";"]))
    width = draw(st.integers(1, 3))
    lines = draw(st.lists(st.lists(CHUNK_CELLS, min_size=width - 1, max_size=width + 1), max_size=8))
    ends = draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    text = "".join(delimiter.join(cells) + end for cells, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # the last record with no line break
    tokens = draw(st.lists(st.sampled_from(["?", "", "NULL", "-"]), unique=True, max_size=3))
    config = IngestConfig(delimiter=delimiter, null_tokens=tuple(tokens), has_header=draw(st.booleans()))
    return text, config


@given(
    chunked_csv(),
    st.integers(1, 9),
    st.booleans(),
    st.none() | st.integers(0, 200),
)
def test_chunked_load_matches_the_whole_text(tmp_path_factory, case, chunk, bom, bad):
    """Read a few characters at a time, a path or a stream loads as the
    whole text does: the same relation or the same error, with a record,
    a quoted field or a CR-LF pair cut by a chunk boundary, and with a
    byte that is not UTF-8 (``bad``) in any chunk of a path."""
    text, config = case
    data = (b"\xef\xbb\xbf" if bom else b"") + text.encode()
    if bad is not None:
        at = min(bad, len(data))
        data = data[:at] + b"\xff" + data[at:]
    path = tmp_path_factory.getbasetemp() / "chunked.csv"
    path.write_bytes(data)
    stream_text = ("\ufeff" if bom else "") + text
    expected = {"path": reference_load(data, config), "stream": reference_load(stream_text, config)}
    for size in (chunk, 1 << 16):
        with mock.patch.object(ingest, "_CHUNK", size):
            assert outcome(lambda _, c: load_csv(path, c), "", config) == expected["path"]
            assert outcome(lambda _, c: load_csv(io.StringIO(stream_text), c), "", config) == expected["stream"]
            assert outcome(load_by_reader, stream_text, config) == expected["stream"]


@pytest.mark.parametrize(
    "head", ["a,b\n1,2,3\n", "\na,b\n", "a,b\n" + "x" * 200_000 + ",1\n"], ids=["ragged", "blank", "long"]
)
@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_undecodable_bytes_are_reported_first(tmp_path, head, bom):
    """Read whole, the text fails on its decoding before anything else, so
    a byte that is not UTF-8 far past a ragged row, a blank first record
    or an over-long field is the error reported, at its position in the
    text after any byte-order mark, not in the block being decoded."""
    path = tmp_path / "late.csv"
    path.write_bytes(bom + head.encode() + b"1,2\n" * 50_000 + b"\xff\n")
    at = len(head) + 200_000
    with pytest.raises(IngestError, match=f"malformed csv: 'utf-8' codec can't decode byte 0xff in position {at}: "):
        load_csv(path)
    path.write_bytes(head.encode() + b"1,2\n" * 50_000)
    with pytest.raises(IngestError, match="row 0 has 3|blank|field larger"):
        load_csv(path)


@pytest.mark.parametrize(
    "bad", [b"\xe9", b"\xe2\x82x", b"\xe2\x82\xac\xff", b"\xe2\x82"], ids=["one", "two", "after-euro", "cut-short"]
)
@pytest.mark.parametrize("at", [0, 65_534, 100_000, 160_004], ids=["start", "block-edge", "late", "end"])
def test_decode_errors_name_the_position_in_the_whole_file(tmp_path, bad, at):
    """A UTF-8 error anywhere in a path, straddling a block of the text
    layer or cut short by the end, gives the message the whole file's
    decoding gives."""
    body = b"a,b\n" + b"1,2\n" * 40_000  # 160,004 bytes
    for data in (body[:at] + bad + body[at:], codecs.BOM_UTF8 + body[:at] + bad + body[at:]):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert outcome(lambda _, c: load_csv(path, c), "", IngestConfig()) == reference_load(data, IngestConfig())


def test_lone_carriage_returns_are_not_read_whole():
    """Records that end only in a carriage return go to ``csv.reader``
    line by line: the first batch comes after two chunks, not after the
    whole stream."""
    text = "a,b\r" + "1,2\r" * 100_000
    stream = io.StringIO(text)
    cells, lengths = next(ingest._batches(stream, ","))
    assert (cells, lengths) == (["a", "b"], [2])
    assert stream.tell() <= 2 * ingest._CHUNK < len(text)
    stream.seek(0)
    rel = load_csv(stream)
    assert len(rel) == 100_000 and rel == load_by_reader(text)
