"""Benchmark helpers: synthetic relations, timing, and report output.

The key-set generators live in :mod:`keysets.families`, which imports
no numpy; this module re-exports them. Synthetic relations draw from the
Mersenne Twister (``random.Random``) with an explicit seed, so the same
seed reproduces the same relation everywhere.

Reports serialize to JSON lines; each carries the raw repeat times
(warm-up excluded), their mean, and the violation counts.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

from .core import KeySet, Schema, format_keyset
from .families import gen_random_keyset, gen_sequential_keysets
from .relation import Relation
from .validation import satisfies, violating_blocks, violating_tuples_naive

__all__ = [
    "BenchReport",
    "format_table",
    "gen_random_keyset",
    "gen_sequential_keysets",
    "reports_to_jsonl",
    "run_bench",
    "synthetic_relation",
    "violation_percentage",
]


@dataclass(frozen=True)
class BenchReport:
    dataset: str
    keyset: str
    algo: str
    repeats: int
    times_ms: tuple[float, ...]
    mean_ms: float
    violating_tuples: int
    blocks: int | None

    def to_dict(self) -> dict:
        return {**asdict(self), "times_ms": list(self.times_ms)}


def synthetic_relation(
    schema: Schema,
    rows: int,
    null_rate: float,
    seed: int | None = None,
    distinct: int = 4,
) -> Relation:
    """Random relation: per cell, a missing value with probability
    ``null_rate``, otherwise one of ``distinct`` values for that column."""
    if not 0.0 <= null_rate <= 1.0:
        raise ValueError("null_rate must be within [0, 1]")
    if distinct < 1:
        raise ValueError("need at least one distinct value")
    rng = random.Random(seed)
    width = len(schema)
    values = []
    for _ in range(rows):
        values.append(
            tuple(
                None if rng.random() < null_rate else str(rng.randrange(distinct))
                for _ in range(width)
            )
        )
    return Relation.from_values(schema, values)


def _measure(fn: Callable[[], object], repeats: int) -> tuple[tuple[float, ...], object]:
    result = fn()  # warm-up, discarded from timing
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - start) * 1000.0)
    return tuple(times), result


def run_bench(
    relation: Relation,
    keysets: Sequence[KeySet],
    algo: str = "linear",
    repeats: int = 10,
    dataset: str = "",
) -> list[BenchReport]:
    """Time one validation algorithm over each key set.

    ``algo`` is ``"naive"`` (all-pairs scan) or ``"linear"`` (block
    refinement). Each key set gets one discarded warm-up call and
    ``repeats`` timed calls.
    """
    if algo not in ("naive", "linear"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    reports = []
    for ks in keysets:
        if algo == "naive":
            times, result = _measure(lambda: violating_tuples_naive(relation, ks), repeats)
            violating, blocks = len(result), None
        else:
            times, result = _measure(lambda: violating_blocks(relation, ks), repeats)
            violating, blocks = len(result.row_ids), len(result)
        reports.append(
            BenchReport(
                dataset=dataset,
                keyset=format_keyset(ks, relation.schema),
                algo=algo,
                repeats=repeats,
                times_ms=times,
                mean_ms=sum(times) / len(times),
                violating_tuples=violating,
                blocks=blocks,
            )
        )
    return reports


def violation_percentage(relation: Relation, keysets: Sequence[KeySet]) -> float:
    """Fraction in [0, 1] of the key sets the relation violates."""
    if not keysets:
        raise ValueError("need at least one key set")
    violated = sum(1 for ks in keysets if not satisfies(relation, ks))
    return violated / len(keysets)


def reports_to_jsonl(reports: Sequence[BenchReport]) -> str:
    return "".join(json.dumps(r.to_dict(), sort_keys=False) + "\n" for r in reports)


def format_table(reports: Sequence[BenchReport]) -> str:
    headers = ("dataset", "keyset", "algo", "mean_ms", "violating", "blocks")
    rows = [
        (
            r.dataset,
            r.keyset if len(r.keyset) <= 40 else r.keyset[:37] + "...",
            r.algo,
            f"{r.mean_ms:.3f}",
            str(r.violating_tuples),
            "-" if r.blocks is None else str(r.blocks),
        )
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(out) + "\n"
