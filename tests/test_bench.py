"""Benchmark helper tests.

Timing values are only checked structurally (count, mean); the
correctness assertions compare every reported count against a direct
call of the validation routines. The seed-42 golden below was produced
by running the generator once and freezing its output.
"""

import json

import pytest

from keysets import (
    BenchReport,
    KeySet,
    Relation,
    Schema,
    format_keyset,
    gen_random_keyset,
    gen_sequential_keysets,
    run_bench,
    synthetic_relation,
    violating_blocks,
    violating_tuples_naive,
    violation_percentage,
)
from keysets.bench import format_table, reports_to_jsonl

SCHEMA6 = Schema.of(*"abcdef")


# --------------------------------------------------------------------------
# Workload generators.


def test_sequential_family(abcd_schema):
    family = gen_sequential_keysets(abcd_schema)
    assert family == (
        KeySet.of({0}, {1}, {2}, {3}),
        KeySet.of({0, 1}, {2}, {3}),
        KeySet.of({0, 1, 2}, {3}),
        KeySet.of({0, 1, 2, 3}),
    )


def test_random_keyset_structure():
    ks = gen_random_keyset(SCHEMA6, 3, seed=7)
    sizes = sorted(len(k) for k in ks.keys)
    assert sizes == [1, 1, 1, 3]
    assert len(ks) == len(SCHEMA6) + 1 - 3
    assert ks.attributes == SCHEMA6.all_attrs()


def test_random_keyset_extremes():
    assert gen_random_keyset(SCHEMA6, 1, seed=3) == KeySet.of(*({a} for a in range(6)))
    assert gen_random_keyset(SCHEMA6, 6, seed=3) == KeySet.of(set(range(6)))


def test_random_keyset_deterministic():
    assert gen_random_keyset(SCHEMA6, 3, seed=42) == gen_random_keyset(SCHEMA6, 3, seed=42)
    assert gen_random_keyset(SCHEMA6, 3, seed=42) == KeySet.of({1, 2, 5}, {0}, {3}, {4})
    assert gen_random_keyset(SCHEMA6, 3, seed=43) != gen_random_keyset(SCHEMA6, 3, seed=42)


def test_random_keyset_size_validation():
    with pytest.raises(ValueError, match="between 1 and 6"):
        gen_random_keyset(SCHEMA6, 0)
    with pytest.raises(ValueError, match="between 1 and 6"):
        gen_random_keyset(SCHEMA6, 7)


# --------------------------------------------------------------------------
# Synthetic data.


def test_synthetic_relation_shape():
    rel = synthetic_relation(SCHEMA6, rows=50, null_rate=0.2, seed=1)
    assert len(rel) == 50
    assert all(len(row.values) == 6 for row in rel.rows)
    again = synthetic_relation(SCHEMA6, rows=50, null_rate=0.2, seed=1)
    assert rel.rows == again.rows


def test_synthetic_relation_values():
    rel = synthetic_relation(SCHEMA6, rows=30, null_rate=0.0, seed=2, distinct=3)
    cells = {v for row in rel.rows for v in row.values}
    assert cells <= {"0", "1", "2"}
    all_null = synthetic_relation(SCHEMA6, rows=5, null_rate=1.0, seed=2)
    assert all(v is None for row in all_null.rows for v in row.values)


def test_synthetic_relation_null_rate_is_respected():
    rel = synthetic_relation(SCHEMA6, rows=500, null_rate=0.2, seed=3)
    nulls = sum(1 for row in rel.rows for v in row.values if v is None)
    assert 0.15 <= nulls / 3000 <= 0.25


def test_synthetic_relation_validation():
    with pytest.raises(ValueError, match="within"):
        synthetic_relation(SCHEMA6, 5, null_rate=1.5)
    with pytest.raises(ValueError, match="at least one distinct"):
        synthetic_relation(SCHEMA6, 5, null_rate=0.1, distinct=0)


# --------------------------------------------------------------------------
# Timing runs.


@pytest.fixture(scope="module")
def small_relation():
    return synthetic_relation(SCHEMA6, rows=60, null_rate=0.2, seed=11)


def test_run_bench_reports_match_direct_validation(small_relation):
    keysets = gen_sequential_keysets(SCHEMA6)
    linear = run_bench(small_relation, keysets, algo="linear", repeats=3, dataset="synthetic")
    naive = run_bench(small_relation, keysets, algo="naive", repeats=3, dataset="synthetic")
    assert len(linear) == len(naive) == len(keysets)
    for rep, ks in zip(linear, keysets):
        blocks = violating_blocks(small_relation, ks)
        assert rep.algo == "linear"
        assert rep.dataset == "synthetic"
        assert rep.keyset == format_keyset(ks, SCHEMA6)
        assert rep.repeats == 3 and len(rep.times_ms) == 3
        assert rep.mean_ms == pytest.approx(sum(rep.times_ms) / 3)
        assert rep.violating_tuples == len(blocks.row_ids)
        assert rep.blocks == len(blocks)
    for rep, ks in zip(naive, keysets):
        assert rep.blocks is None
        assert rep.violating_tuples == len(violating_tuples_naive(small_relation, ks))
    for lin, nai in zip(linear, naive):
        assert lin.violating_tuples == nai.violating_tuples


def test_run_bench_validation(small_relation):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_bench(small_relation, (KeySet.of({0}),), algo="blocked")
    with pytest.raises(ValueError, match="repeats"):
        run_bench(small_relation, (KeySet.of({0}),), repeats=0)
    assert run_bench(small_relation, ()) == []


def test_sequential_violations_grow_with_index(small_relation):
    counts = [
        len(violating_blocks(small_relation, ks).row_ids)
        for ks in gen_sequential_keysets(SCHEMA6)
    ]
    assert counts == sorted(counts)  # X_1 is the strongest constraint


# --------------------------------------------------------------------------
# Violation share.


def test_violation_percentage(small_relation):
    # rows repeat in column a but differ overall
    rel = Relation.from_values(
        SCHEMA6, [("0", "1", "2", "3", "4", "5"), ("0", "1", "2", "3", "4", "6")]
    )
    full_key = KeySet.of(set(range(6)))
    first_only = KeySet.of({0})
    assert violation_percentage(rel, (full_key,)) == 0.0
    assert violation_percentage(rel, (first_only,)) == 1.0
    assert violation_percentage(rel, (full_key, first_only)) == 0.5
    with pytest.raises(ValueError, match="at least one key set"):
        violation_percentage(small_relation, ())


# --------------------------------------------------------------------------
# Report output.


@pytest.fixture()
def sample_reports(small_relation):
    return run_bench(small_relation, gen_sequential_keysets(SCHEMA6)[:2], repeats=2) + run_bench(
        small_relation, gen_sequential_keysets(SCHEMA6)[:1], algo="naive", repeats=2
    )


def test_jsonl_output(sample_reports):
    lines = reports_to_jsonl(sample_reports).splitlines()
    assert len(lines) == 3
    for line, rep in zip(lines, sample_reports):
        doc = json.loads(line)
        assert list(doc) == [
            "dataset",
            "keyset",
            "algo",
            "repeats",
            "times_ms",
            "mean_ms",
            "violating_tuples",
            "blocks",
        ]
        assert doc == rep.to_dict()
    assert json.loads(lines[2])["blocks"] is None


def test_format_table(sample_reports):
    table = format_table(sample_reports)
    lines = table.splitlines()
    assert lines[0].split() == ["dataset", "keyset", "algo", "mean_ms", "violating", "blocks"]
    assert len(lines) == 4
    assert lines[3].rstrip().endswith("-")


def test_format_table_truncates_long_keysets():
    rep = BenchReport(
        dataset="d",
        keyset="k" * 60,
        algo="linear",
        repeats=1,
        times_ms=(1.0,),
        mean_ms=1.0,
        violating_tuples=0,
        blocks=0,
    )
    table = format_table([rep])
    assert "k" * 37 + "..." in table
    assert "k" * 41 not in table


def test_format_table_empty():
    assert format_table([]).splitlines()[0].startswith("dataset")
