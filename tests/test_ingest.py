"""CSV ingestion and export tests.

The accident-ward snapshot doubles as the round-trip fixture: it has
quoted cells containing the delimiter ("Sunday, 19") and four missing
values written as "?".
"""

import io

import pytest

from conftest import WARD_CSV, WARD_ROWS
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


def load_text(text: str, config: IngestConfig = IngestConfig()) -> Relation:
    return load_csv(io.StringIO(text), config)


def test_load_ward_csv(ward_schema):
    rel = load_text(WARD_CSV)
    assert rel.schema == ward_schema
    assert tuple(row.values for row in rel.rows) == WARD_ROWS
    assert tuple(row.row_id for row in rel.rows) == (0, 1, 2, 3)


def test_dataset_stats():
    assert dataset_stats(load_text(WARD_CSV)) == DatasetStats(rows=4, cols=5, nulls=4)


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
    # a stream is read as given, mark included
    assert read_schema(io.StringIO("\ufeffroom,time\n")) == Schema.of("\ufeffroom", "time")


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
