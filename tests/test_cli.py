"""Command-line interface tests.

Each subcommand is driven in process through ``run_cli``. Output that
feeds back into the library (witness CSVs, derivation files, generated
key sets) is parsed again and re-validated rather than string-compared.

Exit codes: 0 holds, 1 does not hold, 2 usage or input error, 3 a
resource limit was hit, 141 standard output closed early.
"""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import WARD_CSV, pair_c_instance, random_keys_family, run_without_numpy
from keysets import (
    KeySet,
    Relation,
    ResourceLimit,
    anti_keys,
    block_trace,
    derive_keyset,
    format_attr_set,
    format_derivation,
    format_keyset,
    format_schema,
    from_3sat,
    gen_random_keyset,
    gen_sequential_keysets,
    is_armstrong_unary,
    load_csv,
    parse_dimacs,
    parse_keyset,
    parse_schema,
    satisfies,
    violating_blocks,
)
from keysets import implication, validation
from keysets.armstrong import TRANSVERSAL_CAP
from keysets.cli import run_cli
from keysets.implication import CHOICE_CAP

WARD_SCHEMA_TEXT = "room,name,address,injury,time"
SIGMA_TEXT = "{{room,time},{injury,time}}\n{{name,time},{injury,time}}\n"
X_TEXT = "{{room,name,time},{injury,time}}"
PHI_PRIME_TEXT = "{{room},{name},{address},{time}}"


@pytest.fixture()
def ward_csv(tmp_path):
    path = tmp_path / "ward.csv"
    path.write_text(WARD_CSV, encoding="utf-8")
    return str(path)


@pytest.fixture()
def sigma_file(tmp_path):
    path = tmp_path / "sigma.txt"
    path.write_text(SIGMA_TEXT, encoding="utf-8")
    return str(path)


# --------------------------------------------------------------------------
# validate


def test_validate_satisfied(ward_csv, capsys):
    code = run_cli(["validate", "--data", ward_csv, "--keyset", "{{room},{time}}"])
    assert code == 0
    assert capsys.readouterr().out == "{{room},{time}}: satisfied\n"


def test_validate_violated_linear(ward_csv, capsys):
    code = run_cli(["validate", "--data", ward_csv, "--keyset", "{{room,time}}"])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "{{room,time}}: violated"
    assert out[1] == "  violating rows: 0 1 2 3"
    assert out[2:] == ["  block: 0 1", "  block: 1 2", "  block: 1 3"]


def test_validate_violated_naive(ward_csv, capsys):
    code = run_cli(["validate", "--data", ward_csv, "--keyset", "{{room,time}}", "--algo", "naive"])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["{{room,time}}: violated", "  violating rows: 0 1 2 3"]


def test_validate_json_report(ward_csv, capsys):
    code = run_cli(
        ["validate", "--data", ward_csv, "--keyset", "{{room,time}}", "--report", "json"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["data"] == ward_csv
    (entry,) = doc["results"]
    assert entry["keyset"] == "{{room,time}}"
    assert entry["algo"] == "linear"
    assert entry["satisfied"] is False
    assert entry["violating_row_ids"] == [0, 1, 2, 3]
    assert entry["blocks"] == [[0, 1], [1, 2], [1, 3]]


# Six rows, mostly incomplete: under {{a},{b,c}} its three maximal blocks
# iterate out of canonical order, so the printers must sort them.
NULL_HEAVY_CSV = "a,b,c\ny,?,x\nx,x,?\nx,y,x\nx,?,?\nx,y,x\n?,x,x\n"
NULL_HEAVY_BLOCKS = [[0, 5], [1, 2, 3, 4], [1, 3, 5]]


def test_validate_prints_blocks_in_canonical_order(tmp_path, capsys):
    data = tmp_path / "nullheavy.csv"
    data.write_text(NULL_HEAVY_CSV, encoding="utf-8")
    relation = load_csv(str(data))
    ks = parse_keyset("{{a},{b,c}}", relation.schema)
    assert [sorted(b) for b in violating_blocks(relation, ks)] != NULL_HEAVY_BLOCKS
    base = ["validate", "--data", str(data), "--keyset", "{{a},{b,c}}"]
    assert run_cli(base) == 1
    assert capsys.readouterr().out == (
        "{{a},{b,c}}: violated\n"
        "  violating rows: 0 1 2 3 4 5\n"
        "  block: 0 5\n"
        "  block: 1 2 3 4\n"
        "  block: 1 3 5\n"
    )
    assert run_cli(base + ["--report", "json"]) == 1
    entry = {
        "keyset": "{{a},{b,c}}",
        "algo": "linear",
        "satisfied": False,
        "violating_row_ids": [0, 1, 2, 3, 4, 5],
        "blocks": NULL_HEAVY_BLOCKS,
    }
    assert capsys.readouterr().out == json.dumps({"data": str(data), "results": [entry]}, indent=2) + "\n"


def test_validate_keyset_file(ward_csv, tmp_path, capsys):
    ks_file = tmp_path / "keysets.txt"
    ks_file.write_text("{{room},{time}}\n{{room,time}}\n", encoding="utf-8")
    code = run_cli(["validate", "--data", ward_csv, "--keyset-file", str(ks_file)])
    assert code == 1  # one of the two is violated
    out = capsys.readouterr().out
    assert "{{room},{time}}: satisfied" in out
    assert "{{room,time}}: violated" in out


def test_validate_ingest_options(tmp_path, capsys):
    data = tmp_path / "plain.csv"
    data.write_text("x;-\ny;z\n", encoding="utf-8")
    base = ["validate", "--data", str(data), "--no-header", "--delimiter", ";", "--null-token", "-"]
    assert run_cli(base + ["--keyset", '{{"0"}}']) == 0
    assert run_cli(base + ["--keyset", '{{"1"}}']) == 1
    capsys.readouterr()


def test_validate_usage_errors(ward_csv, tmp_path, capsys):
    assert run_cli(["validate", "--data", ward_csv]) == 2  # neither keyset source
    assert (
        run_cli(
            ["validate", "--data", ward_csv, "--keyset", "{{a}}", "--keyset-file", "f"]
        )
        == 2
    )
    assert run_cli(["validate", "--data", str(tmp_path / "gone.csv"), "--keyset", "{{a}}"]) == 2
    assert run_cli(["validate", "--data", ward_csv, "--keyset", "{{bogus}}"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


# --------------------------------------------------------------------------
# implies


def test_implies_positive(sigma_file, capsys):
    code = run_cli(["implies", "--schema", WARD_SCHEMA_TEXT, "--sigma", sigma_file, "--phi", X_TEXT])
    assert code == 0
    assert capsys.readouterr().out == "implied\n"


def test_implies_negative_witness_on_stdout(sigma_file, capsys):
    code = run_cli(
        ["implies", "--schema", WARD_SCHEMA_TEXT, "--sigma", sigma_file, "--phi", PHI_PRIME_TEXT]
    )
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "not implied"
    assert lines[1] == "failing choice: {injury,time}, {injury,time}"
    witness = load_csv(io.StringIO("\n".join(lines[2:]) + "\n"))
    schema = witness.schema
    for text in SIGMA_TEXT.splitlines():
        assert satisfies(witness, parse_keyset(text, schema))
    assert not satisfies(witness, parse_keyset(PHI_PRIME_TEXT, schema))


def test_implies_witness_out_file(sigma_file, tmp_path, capsys):
    out_path = tmp_path / "witness.csv"
    code = run_cli(
        [
            "implies",
            "--schema",
            WARD_SCHEMA_TEXT,
            "--sigma",
            sigma_file,
            "--phi",
            PHI_PRIME_TEXT,
            "--witness-out",
            str(out_path),
        ]
    )
    assert code == 1
    assert f"witness written to {out_path}" in capsys.readouterr().out
    witness = load_csv(out_path)
    assert len(witness) == 2
    assert not satisfies(witness, parse_keyset(PHI_PRIME_TEXT, witness.schema))


def test_implies_empty_sigma_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no key sets here\n", encoding="utf-8")
    code = run_cli(["implies", "--schema", "a,b", "--sigma", str(empty), "--phi", "{{a}}"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "not implied"
    assert not any(line.startswith("failing choice") for line in lines)
    witness = load_csv(io.StringIO("\n".join(lines[1:]) + "\n"))
    assert witness.rows[0].values == witness.rows[1].values


def _implies_argv(inst, tmp_path) -> list[str]:
    sigma = tmp_path / "sigma_instance.txt"
    sigma.write_text("".join(format_keyset(ks, inst.schema) + "\n" for ks in inst.sigma), encoding="utf-8")
    schema = format_schema(inst.schema)
    return ["implies", "--schema", schema, "--sigma", str(sigma), "--phi", format_keyset(inst.phi, inst.schema)]


def test_implies_node_cap_exits_3(tmp_path, monkeypatch, capsys):
    # 20 pairs {{a_i},{b_i}}, then {{c}}: a product of 2**20, nothing pruned early
    started = time.perf_counter()
    assert run_cli(_implies_argv(pair_c_instance(20), tmp_path)) == 3
    assert time.perf_counter() - started < 5
    message = f"error: search nodes has {CHOICE_CAP + 1} elements, cap is {CHOICE_CAP}\n"
    assert capsys.readouterr() == ("", message)
    # with 3 pairs, a product of 8, the search visits 22 nodes
    argv = _implies_argv(pair_c_instance(3), tmp_path)
    monkeypatch.setattr(implication, "CHOICE_CAP", 7)
    assert run_cli(argv) == 3
    assert capsys.readouterr() == ("", "error: search nodes has 8 elements, cap is 7\n")
    monkeypatch.setattr(implication, "CHOICE_CAP", 8)
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == "implied\n"
    assert run_cli(argv + ["--cap", "1000"]) == 2  # the cap is not an option
    capsys.readouterr()


def test_module_entry_points():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for module in ("keysets", "keysets.cli"):
        argv = ["-m", module, "gen-keysets", "--schema", "a,b", "--mode", "sequential"]
        done = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, encoding="utf-8", timeout=60
        )
        assert (done.returncode, done.stdout) == (0, "{{a},{b}}\n{{a,b}}\n")


def test_reasoning_commands_run_without_numpy(tmp_path, ward_derivation):
    """``from-3sat``, ``check-proof``, ``gen-keysets`` and an implied
    ``implies``, with the schema inline or read from a CSV header, import
    no relation layer, so they run where numpy cannot be imported."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n", encoding="utf-8")
    proof = tmp_path / "proof.txt"
    proof.write_text(ward_derivation, encoding="utf-8")
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("{{a}}\n", encoding="utf-8")
    header = tmp_path / "header.csv"
    header.write_text("a,b\n1,2\n", encoding="utf-8")
    for argv, first_line in (
        (["from-3sat", "--dimacs", str(cnf)], "schema: x1,not_x1,x2,not_x2"),
        (["check-proof", "--derivation", str(proof)], "valid (1 steps)"),
        (["implies", "--schema", "a,b", "--sigma", str(sigma), "--phi", "{{a},{b}}"], "implied"),
        (["implies", "--schema", str(header), "--sigma", str(sigma), "--phi", "{{a},{b}}"], "implied"),
        (["gen-keysets", "--schema", "a,b", "--mode", "sequential"], "{{a},{b}}"),
    ):
        done = run_without_numpy(tmp_path, "-m", "keysets", *argv)
        assert (done.returncode, done.stdout.split("\n", 1)[0], done.stderr) == (0, first_line, "")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_pipe_exits_141_quietly(ward_csv, capsys):
    """A reader that closes standard output early, as ``head`` does, ends
    the command with 128 + SIGPIPE and no error line."""
    argv = ["validate", "--data", ward_csv, "--keyset", "{{room,time}}", "--report", "json"]
    with contextlib.redirect_stdout(_ClosedPipe()):
        assert run_cli(argv) == 141
    assert capsys.readouterr() == ("", "")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "keysets", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()  # before the command, still importing, writes anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_implies_schema_from_csv_header(ward_csv, sigma_file, capsys):
    code = run_cli(["implies", "--schema", ward_csv, "--sigma", sigma_file, "--phi", X_TEXT])
    assert code == 0
    assert capsys.readouterr().out == "implied\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("", "expected an attribute name (at position 0)"),
        (".", "unexpected character '.' (at position 0)"),
        ("a,,b", "expected an attribute name (at position 2)"),
    ],
    ids=["empty", "directory", "empty-name"],
)
def test_schema_spec_not_a_file_is_parsed(spec, message, sigma_file, capsys):
    """Only an existing file is read as a CSV header; anything else,
    including a directory, is parsed as an attribute list."""
    for argv in (
        ["implies", "--schema", spec, "--sigma", sigma_file, "--phi", "{{a}}"],
        ["gen-keysets", "--schema", spec, "--mode", "sequential"],
    ):
        assert run_cli(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_schema_name_with_a_line_break_is_refused(tmp_path, capsys):
    """A quoted header cell may span lines; its name cannot be written."""
    data = tmp_path / "multiline.csv"
    data.write_text('"a\nb",c\n1,2\n', encoding="utf-8")
    assert run_cli(["gen-keysets", "--schema", str(data), "--mode", "sequential"]) == 2
    message = "attribute name 'a\\nb' holds a line break, so its text would not read back"
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_schema_file_with_a_blank_first_record_is_refused(tmp_path, sigma_file, capsys):
    """A schema CSV whose header is blank is an input error naming the file."""
    data = tmp_path / "blank.csv"
    data.write_text("\na,b\n1,2\n", encoding="utf-8")
    assert run_cli(["implies", "--schema", str(data), "--sigma", sigma_file, "--phi", "{{a}}"]) == 2
    assert capsys.readouterr() == ("", f"error: {data}: the first record is blank\n")


def test_long_inline_schema_is_parsed(capsys):
    """A list longer than a file name may be is still a list, not an
    error from the file system."""
    names = [f"attr{i}" for i in range(60)]
    spec = ",".join(names)
    assert len(spec) > 255
    with tempfile.TemporaryDirectory() as tmp:
        sigma = Path(tmp, "sigma.txt")
        sigma.write_text("{{attr0,attr59}}\n", encoding="utf-8")
        assert run_cli(["implies", "--schema", spec, "--sigma", str(sigma), "--phi", "{{attr59}}"]) == 1
    assert capsys.readouterr().out.splitlines()[:3] == ["not implied", "failing choice: {attr0,attr59}", spec]
    assert run_cli(["gen-keysets", "--schema", spec, "--mode", "sequential", "--param", "60"]) == 0
    assert capsys.readouterr() == ("{{%s}}\n" % spec, "")


def test_validate_csv_with_byte_order_mark(tmp_path, capsys):
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbfroom,time\n1,2\n1,3\n")
    assert run_cli(["validate", "--data", str(data), "--keyset", "{{room}}"]) == 1
    assert capsys.readouterr().out == "{{room}}: violated\n  violating rows: 0 1\n  block: 0 1\n"
    assert run_cli(["validate", "--data", str(data), "--keyset", "{{time}}"]) == 0
    assert capsys.readouterr().out == "{{time}}: satisfied\n"


def test_implies_missing_sigma_file(tmp_path, capsys):
    code = run_cli(
        ["implies", "--schema", "a,b", "--sigma", str(tmp_path / "gone.txt"), "--phi", "{{a}}"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_implies_decides_unary_goals(sigma_file, capsys):
    base = ["implies", "--schema", WARD_SCHEMA_TEXT, "--sigma", sigma_file]
    assert run_cli(base + ["--phi", "{{room},{injury},{time}}"]) == 0
    assert run_cli(base + ["--phi", X_TEXT]) == 0
    assert capsys.readouterr().out == "implied\nimplied\n"
    assert run_cli(base + ["--phi", PHI_PRIME_TEXT]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["not implied", "failing choice: {injury,time}, {injury,time}"]
    # the separate unary subcommand is gone
    assert run_cli(["implies-unary", *base[1:], "--phi", "{{room}}"]) == 2
    assert "invalid choice: 'implies-unary'" in capsys.readouterr().err


# --------------------------------------------------------------------------
# check-proof


@pytest.fixture()
def ward_derivation(ward_schema, x1, x2, x_goal):
    return format_derivation(derive_keyset((x1, x2), x_goal), ward_schema)


def test_check_proof_valid(tmp_path, ward_derivation, capsys):
    path = tmp_path / "proof.txt"
    path.write_text(ward_derivation, encoding="utf-8")
    assert run_cli(["check-proof", "--derivation", str(path)]) == 0
    assert capsys.readouterr().out == "valid (1 steps)\n"


def test_check_proof_invalid_step(tmp_path, ward_derivation, capsys):
    # claim a wrong conclusion for step 0
    broken = ward_derivation.replace(
        "=> {{room,name,time},{injury,time}}", "=> {{room,name,time}}", 1
    )
    path = tmp_path / "proof.txt"
    path.write_text(broken, encoding="utf-8")
    assert run_cli(["check-proof", "--derivation", str(path)]) == 1
    assert capsys.readouterr().out == "invalid: step 0 does not check\n"


def test_check_proof_unsupported_conclusion(tmp_path, capsys):
    text = "schema: a,b\npremise 0: {{a}}\nconclusion: {{b}}\n"
    path = tmp_path / "proof.txt"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["check-proof", "--derivation", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == "invalid: conclusion is neither a premise nor the final step's result\n"


def test_check_proof_rejects_unchecked_choice_entries(tmp_path, capsys):
    def step(entries: str) -> str:
        return (
            "schema: a,b,c\npremise 0: {{a},{b}}\npremise 1: {{c}}\n"
            f"0: Composition from p0,p1 with {entries} => {{{{a,c}},{{b,c}}}}\n"
            "conclusion: {{a,c},{b,c}}\n"
        )

    path = tmp_path / "proof.txt"
    path.write_text(step("{a}|{c}->{a,c}; {b}|{c}->{b,c}"), encoding="utf-8")
    assert run_cli(["check-proof", "--derivation", str(path)]) == 0
    # a duplicate tuple, tuples drawn from the wrong premises, and one
    # drawn from no premise at all
    junk = "{a}|{c}->{b}; {a}|{c}->{a,c}; {b}|{c}->{b,c}; {c}|{a}->{}; {b,c}|{a,b,c}->{}"
    path.write_text(step(junk), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(["check-proof", "--derivation", str(path)]) == 1
    assert capsys.readouterr().out == "invalid: step 0 does not check\n"


def test_check_proof_input_errors(tmp_path, capsys):
    assert run_cli(["check-proof", "--derivation", str(tmp_path / "gone.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("no schema here\n", encoding="utf-8")
    assert run_cli(["check-proof", "--derivation", str(bad)]) == 2
    capsys.readouterr()


_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "--data", "@bad", "--keyset", "{{a}}"], f"malformed csv: {_NOT_UTF8}"),
        (["validate", "--data", "@ward", "--keyset-file", "@bad"], _NOT_UTF8),
        (["bench", "--data", "@bad"], f"malformed csv: {_NOT_UTF8}"),
        (["implies", "--schema", "a,b", "--sigma", "@bad", "--phi", "{{a}}"], _NOT_UTF8),
        (["antikeys", "--schema", "a,b", "--sigma", "@bad"], _NOT_UTF8),
        (["check-proof", "--derivation", "@bad"], _NOT_UTF8),
        (["from-3sat", "--dimacs", "@bad"], _NOT_UTF8),
    ],
    ids=["data", "keyset-file", "bench-data", "sigma", "antikeys-sigma", "derivation", "dimacs"],
)
def test_input_file_errors_name_the_file(argv, message, ward_csv, tmp_path, capsys):
    """An input file whose bytes are not UTF-8 is an input error that names
    the file, whichever option reads it."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff{{a}}\n")
    files = {"@bad": str(bad), "@ward": ward_csv}
    assert run_cli([files.get(a, a) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


def test_check_proof_error_names_the_file_and_line(tmp_path, capsys):
    """A bad key set inside a proof line names the file, the line and the
    position inside the key set."""
    path = tmp_path / "proof.txt"
    path.write_text("schema: a,b\npremise 0: {{a}}\npremise 1: {{zz}}\nconclusion: {{a}}\n", encoding="utf-8")
    assert run_cli(["check-proof", "--derivation", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: line 3: unknown attribute 'zz' (at position 2)\n")


# --------------------------------------------------------------------------
# armstrong / antikeys

ANTIKEY_LINES = [
    "{room,name,address,injury}",
    "{room,name,address,time}",
    "{address,injury,time}",
]


def test_armstrong_stdout(sigma_file, capsys):
    code = run_cli(["armstrong", "--schema", WARD_SCHEMA_TEXT, "--sigma", sigma_file])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ANTIKEY_LINES
    rel = load_csv(io.StringIO(captured.out))
    assert len(rel) == 4
    sigma = [parse_keyset(t, rel.schema) for t in SIGMA_TEXT.splitlines()]
    assert is_armstrong_unary(rel, sigma)


def test_armstrong_out_file(sigma_file, tmp_path, capsys):
    out_path = tmp_path / "armstrong.csv"
    code = run_cli(
        ["armstrong", "--schema", WARD_SCHEMA_TEXT, "--sigma", sigma_file, "--out", str(out_path)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ANTIKEY_LINES
    assert f"armstrong relation written to {out_path}" in captured.err
    assert len(load_csv(out_path)) == 4


def test_antikeys(sigma_file, capsys):
    code = run_cli(["antikeys", "--schema", WARD_SCHEMA_TEXT, "--sigma", sigma_file])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ANTIKEY_LINES


def test_antikeys_rejects_empty_family(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n", encoding="utf-8")
    assert run_cli(["antikeys", "--schema", "a,b", "--sigma", str(empty)]) == 2
    assert "no key sets found" in capsys.readouterr().err


# 20 members {{c2i},{c2i+1}}: 2^20 minimal transversals
PAIRS_SCHEMA_TEXT = ",".join(f"c{i}" for i in range(40))
PAIRS_SIGMA_TEXT = "".join(f"{{{{c{2 * i}}},{{c{2 * i + 1}}}}}\n" for i in range(20))


def test_transversal_cap_exits_3(tmp_path, capsys):
    sigma = tmp_path / "pairs.txt"
    sigma.write_text(PAIRS_SIGMA_TEXT, encoding="utf-8")
    for command in ("antikeys", "armstrong"):
        started = time.perf_counter()
        assert run_cli([command, "--schema", PAIRS_SCHEMA_TEXT, "--sigma", str(sigma)]) == 3
        assert time.perf_counter() - started < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: minimal transversal family has 5001 elements, cap is {TRANSVERSAL_CAP}\n"
        )


def test_random_keys_family_antikeys_exits_0(tmp_path, capsys):
    # its 4,630 anti-keys fit the cap, which counts the answer's sets
    schema, sigma = random_keys_family()
    path = tmp_path / "keys.txt"
    path.write_text("".join(format_keyset(ks, schema) + "\n" for ks in sigma), encoding="utf-8")
    assert run_cli(["antikeys", "--schema", format_schema(schema), "--sigma", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4630
    assert lines == [format_attr_set(a, schema) for a in anti_keys(sigma, schema).anti_keys]


def test_block_row_cap_exits_3(ward_csv, monkeypatch, capsys):
    """{{room,time}} puts the ward's three total rows in three classes and
    copies row 1, missing room, into each: six block rows. ``satisfies``
    answers without building them, since row 1 misses a cell of every key;
    on four rows where each row is total on some key, it builds the six."""
    relation = load_csv(ward_csv)
    ks = parse_keyset("{{room,time}}", relation.schema)
    argv = ["validate", "--data", ward_csv, "--keyset", "{{room,time}}"]
    monkeypatch.setattr(validation, "BLOCK_ROW_CAP", 5)
    for fn in (violating_blocks, block_trace):
        with pytest.raises(ResourceLimit) as info:
            fn(relation, ks)
        assert (info.value.limit, info.value.size, info.value.cap) == ("block rows", 6, 5)
    assert satisfies(relation, ks) is False
    # {a} first (one missing cell): rows 0..2 are singletons, row 3 joins each
    rows = Relation.from_values(parse_schema("a,b"), [("1", None), ("2", None), ("3", None), (None, "x")])
    with pytest.raises(ResourceLimit) as info:
        satisfies(rows, KeySet.of({0}, {1}))
    assert (info.value.limit, info.value.size, info.value.cap) == ("block rows", 6, 5)
    assert run_cli(argv) == 3
    assert capsys.readouterr() == ("", "error: block rows has 6 elements, cap is 5\n")
    assert run_cli(argv + ["--algo", "naive"]) == 1  # the all-pairs route builds no blocks
    monkeypatch.setattr(validation, "BLOCK_ROW_CAP", 6)
    assert run_cli(argv) == 1
    capsys.readouterr()


# --------------------------------------------------------------------------
# gen-keysets / from-3sat


def test_gen_keysets_sequential_full(capsys):
    schema = parse_schema("a,b,c,d")
    assert run_cli(["gen-keysets", "--schema", "a,b,c,d", "--mode", "sequential"]) == 0
    lines = capsys.readouterr().out.splitlines()
    parsed = tuple(parse_keyset(line, schema) for line in lines)
    assert parsed == gen_sequential_keysets(schema)


def test_gen_keysets_sequential_single(capsys):
    assert (
        run_cli(["gen-keysets", "--schema", "a,b,c,d", "--mode", "sequential", "--param", "2"]) == 0
    )
    assert capsys.readouterr().out == "{{a,b},{c},{d}}\n"


def test_gen_keysets_random(capsys):
    schema = parse_schema("a,b,c,d,e,f")
    argv = [
        "gen-keysets",
        "--schema",
        "a,b,c,d,e,f",
        "--mode",
        "random",
        "--param",
        "3",
        "--seed",
        "42",
        "--count",
        "2",
    ]
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [parse_keyset(line, schema) for line in lines] == [
        gen_random_keyset(schema, 3, 42),
        gen_random_keyset(schema, 3, 43),
    ]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines  # same seed, same output


def test_gen_keysets_random_needs_param(capsys):
    assert run_cli(["gen-keysets", "--schema", "a,b", "--mode", "random"]) == 2
    assert "--param" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_gen_keysets_count_below_one(count, capsys):
    argv = ["gen-keysets", "--schema", "a,b,c", "--mode", "random", "--param", "2", "--count", count]
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", "error: count must be >= 1\n")


@pytest.mark.parametrize(
    "args,message",
    [
        (["--mode", "walk", "--param", "1"], "invalid choice: 'walk'"),
        (["--mode", "random", "--param", "0"], "error: generator parameter must be >= 1\n"),
        (["--mode", "sequential", "--param", "0"], "error: generator parameter must be >= 1\n"),
        (["--mode", "sequential", "--param", "5"], "error: sequential index 5 exceeds schema size 4\n"),
    ],
    ids=["unknown-mode", "random-param-0", "sequential-param-0", "sequential-index-past-schema"],
)
def test_gen_keysets_rejects_bad_generator_arguments(args, message, capsys):
    assert run_cli(["gen-keysets", "--schema", "a,b,c,d", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_gen_keysets_sequential_ignores_count(capsys):
    argv = ["gen-keysets", "--schema", "a,b,c,d", "--mode", "sequential", "--param", "2", "--count", "9"]
    assert run_cli(argv) == 0
    schema = parse_schema("a,b,c,d")
    assert [parse_keyset(line, schema) for line in capsys.readouterr().out.splitlines()] == [
        gen_sequential_keysets(schema)[1]
    ]


def test_gen_keysets_random_seeds_count_up_from_0(capsys):
    argv = ["gen-keysets", "--schema", "a,b,c,d,e,f", "--mode", "random", "--param", "2", "--count", "2"]
    assert run_cli(argv) == 0
    schema = parse_schema("a,b,c,d,e,f")
    assert [parse_keyset(line, schema) for line in capsys.readouterr().out.splitlines()] == [
        gen_random_keyset(schema, 2, 0),
        gen_random_keyset(schema, 2, 1),
    ]


def test_from_3sat_cli(tmp_path, capsys):
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n", encoding="utf-8")
    assert run_cli(["from-3sat", "--dimacs", str(dimacs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    inst = from_3sat(parse_dimacs(dimacs.read_text(encoding="utf-8")))
    schema = parse_schema(lines[0].removeprefix("schema: "))
    assert schema == inst.schema
    sigma = tuple(
        parse_keyset(line.removeprefix("sigma: "), schema)
        for line in lines[1:-1]
    )
    assert sigma == inst.sigma
    assert parse_keyset(lines[-1].removeprefix("phi: "), schema) == inst.phi


def test_from_3sat_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf oops\n", encoding="utf-8")
    assert run_cli(["from-3sat", "--dimacs", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# bench


def test_bench_table_and_jsonl(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,b,c\n0,1,?\n0,1,2\n1,1,2\n", encoding="utf-8")
    out_path = tmp_path / "reports.jsonl"
    code = run_cli(
        ["bench", "--data", str(data), "--repeats", "1", "--algo", "both", "--out", str(out_path)]
    )
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].split() == ["dataset", "keyset", "algo", "mean_ms", "violating", "blocks"]
    assert len(lines) == 1 + 2 * 3  # both algos, sequential family of width 3
    assert f"jsonl written to {out_path}" in captured.err
    docs = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    assert len(docs) == 6
    assert {d["algo"] for d in docs} == {"naive", "linear"}
    assert all(d["repeats"] == 1 and len(d["times_ms"]) == 1 for d in docs)


def test_bench_random_mode(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,b,c\n0,1,2\n0,1,2\n", encoding="utf-8")
    code = run_cli(
        [
            "bench",
            "--data",
            str(data),
            "--mode",
            "random",
            "--param",
            "2",
            "--seed",
            "1",
            "--count",
            "2",
            "--repeats",
            "1",
        ]
    )
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_bench_random_needs_param(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,b\n0,1\n", encoding="utf-8")
    assert run_cli(["bench", "--data", str(data), "--mode", "random"]) == 2
    capsys.readouterr()


# --------------------------------------------------------------------------
# top-level usage


def test_usage_errors(capsys):
    assert run_cli([]) == 2
    assert run_cli(["no-such-command"]) == 2
    capsys.readouterr()


# --------------------------------------------------------------------------
# hostile input: any small file, any subcommand, never a traceback

# An argument "@name" stands for the path of the generated file "name".
SCHEMA_SPECS = ("a,b,c", "a", "@data.csv", "a,,b", "")
VALID_PROOF = (
    "schema: a,b,c\n"
    "premise 0: {{a},{b}}\n"
    "premise 1: {{a,b}}\n"
    "0: NaryComposition from p0,p1 with {a}|{a,b}->{a,b}; {b}|{a,b}->{a,b} => {{a,b}}\n"
    "1: Refinement from s0 with {a,b}->{a}|{b} => {{a},{b}}\n"
    "conclusion: {{a},{b}}\n"
)


def _junk(alphabet: str):
    return st.text(alphabet=alphabet, max_size=40)


def _lines(lines, max_size: int = 5):
    return st.lists(lines, max_size=max_size).map(lambda ls: "".join(line + "\n" for line in ls))


_cell = st.sampled_from(("0", "1", "?", "", '"x,y"'))
_csv = st.one_of(
    _junk('ab01?,"\n '),
    st.builds(
        lambda header, rows: header + "\n" + rows,
        st.sampled_from(("a,b,c", "a,b", "a,a,b", "")),
        _lines(st.lists(_cell, min_size=3, max_size=3).map(",".join)),
    ),
)
_key = st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(lambda k: "{%s}" % ",".join(k))
_keyset = st.lists(_key, min_size=1, max_size=3).map(lambda ks: "{%s}" % ",".join(ks))
_sigma = st.one_of(_junk('{}abc,"\\\n #'), _lines(_keyset, max_size=4))
_literal = st.sampled_from((-3, -2, -1, 1, 2, 3, 0, 7)).map(str)
_cnf = st.one_of(
    _junk("pcnf 0123-\n"),
    st.builds(
        lambda problem, clauses: problem + clauses,
        st.sampled_from(("p cnf 3 2\n", "p cnf 3 0\n", "p cnf x\n", "")),
        _lines(st.lists(_literal, min_size=1, max_size=4).map(" ".join).map("{} 0".format), max_size=4),
    ),
)
_proof = st.one_of(
    _junk("{}ab,:>-|;\n 0ps"),
    st.just(VALID_PROOF),
    # the valid proof's lines, some dropped, repeated or reordered
    _lines(st.sampled_from([*VALID_PROOF.splitlines(), "0: UpwardClosure from p9 with {{c}} => {{c}}"])),
)
_small = st.integers(-1, 4).map(str)


@st.composite
def _argv(draw):
    spec = st.sampled_from(SCHEMA_SPECS)
    ingest = st.sampled_from(([], ["--no-header"], ["--null-token", "1"], ["--delimiter", ";"]))
    commands = ("validate", "implies", "check-proof", "armstrong", "antikeys")
    command = draw(st.sampled_from((*commands, "gen-keysets", "from-3sat", "bench")))
    if command == "validate":
        target = draw(st.sampled_from((["--keyset", draw(_keyset)], ["--keyset-file", "@sigma.txt"])))
        algo = draw(st.sampled_from(("naive", "linear")))
        report = draw(st.sampled_from(("table", "json")))
        return ["validate", "--data", "@data.csv", *target, "--algo", algo, "--report", report, *draw(ingest)]
    if command == "implies":
        return [command, "--schema", draw(spec), "--sigma", "@sigma.txt", "--phi", draw(_keyset)]
    if command == "check-proof":
        return [command, "--derivation", "@proof.txt"]
    if command in ("armstrong", "antikeys"):
        return [command, "--schema", draw(spec), "--sigma", "@sigma.txt"]
    if command == "gen-keysets":
        mode = draw(st.sampled_from(("sequential", "random")))
        numbers = ["--param", draw(_small), "--seed", draw(_small)]
        return [command, "--schema", draw(spec), "--mode", mode, *numbers]
    if command == "from-3sat":
        return [command, "--dimacs", "@formula.cnf"]
    return ["bench", "--data", "@data.csv", "--repeats", "1", *draw(ingest)]


_inputs = st.fixed_dictionaries(
    {"data.csv": _csv, "sigma.txt": _sigma, "formula.cnf": _cnf, "proof.txt": _proof}
)


@given(_inputs, _argv(), st.none())
@example(
    {"data.csv": "a,b\n" + "x" * 200_000 + ",1\n"},
    ["validate", "--data", "@data.csv", "--keyset", "{{a}}"],
    2,
)
@example(
    {"sigma.txt": PAIRS_SIGMA_TEXT},
    ["antikeys", "--schema", PAIRS_SCHEMA_TEXT, "--sigma", "@sigma.txt"],
    3,
)
def test_cli_never_raises(files, argv, expected):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [str(Path(tmp, a[1:])) if a.startswith("@") else a for a in argv]
        # an exception escaping run_cli fails the test
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(argv)
    assert code in (0, 1, 2, 3)
    if expected is not None:
        assert code == expected
