"""Seeded input generators for the benchmark.

Every input is written as text (CSV, key-set lines, DIMACS) into a
directory, so the program under test receives only files and parses them
itself. The same seed gives byte-identical files; :func:`digests` records
each file's size and sha256 so two runs can show they used the same inputs.

The generators use their own ``numpy.random.Generator`` and never call the
library, so the inputs do not depend on the code being measured. Where an
input's shape drives the work, the generator fixes that shape (rows per
count of missing cells), or draws it from a fixed stream and lets the
seed vary only what leaves the work (nearly) unchanged (validation key
sets, null-heavy cells, 3-CNF formulas, Armstrong families), so seeds
differ in detail but hardly in the amount of work.

    python3 perfbench/inputs.py <workload> <seed> <empty-dir> [full|tiny]

writes the inputs in a process of their own, so the generator's memory
does not count in the benchmark's peak RSS.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("validate-bulk", "validate-nullheavy", "reason-implies", "reason-proofs")


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    bulk_rows: int
    bulk_cards: tuple[int, ...]
    dup_share: float
    null_rows: int
    sat_vars: tuple[int, ...]
    families: int
    family_attrs: tuple[int, ...]
    proof_vars: tuple[int, ...]
    armstrong: int
    armstrong_attrs: tuple[int, int]
    armstrong_members: tuple[int, int]


FULL = Scale(
    bulk_rows=40_000,
    bulk_cards=(3, 8, 30, 120, 600, 3_000, 15_000, 40_000),
    dup_share=0.005,
    null_rows=320,
    sat_vars=(10, 12, 13, 14, 14, 15),
    families=12,
    family_attrs=(6, 7, 8, 9),
    proof_vars=(4, 5, 6, 4, 5, 6),
    armstrong=12,
    armstrong_attrs=(14, 18),
    armstrong_members=(20, 45),
)

TINY = Scale(
    bulk_rows=400,
    bulk_cards=(3, 8, 30, 120, 200, 300, 400, 400),
    dup_share=0.02,
    null_rows=60,
    sat_vars=(6, 8),
    families=3,
    family_attrs=(5, 6),
    proof_vars=(4,),
    armstrong=2,
    armstrong_attrs=(8, 10),
    armstrong_members=(6, 10),
)

WIDTH = 8
NULL = "?"
# Inputs whose cost swings with their random structure come from this fixed
# stream, not from --seed: the cost of refinement depends on which
# attributes a key set puts first, the size of a proof on the formula's
# structure, and the cost of the transversal search 2-4x on the family.
FIXED_STREAM = 2101


def _names(width: int) -> list[str]:
    return [f"A{i + 1}" for i in range(width)]


def _write_csv(path: Path, cells: np.ndarray, width: int) -> None:
    """``cells[i, j]`` is a value code, or -1 for a missing value."""
    names = _names(width)
    lines = [",".join(names)]
    for row in cells.tolist():
        lines.append(",".join(NULL if v < 0 else f"{names[j].lower()}_{v}" for j, v in enumerate(row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _keyset_text(keys: list[list[int]], names: list[str]) -> str:
    return "{" + ",".join("{" + ",".join(names[a] for a in sorted(k)) + "}" for k in keys) + "}"


def _validation_keysets() -> str:
    """The sequential family X_1..X_n and random key sets with one m-key.

    X_i = {{A1..Ai},{A(i+1)},...,{An}}; a random key set has one key of m
    distinct attributes and every other attribute as a singleton key. Both
    kinds cover the whole schema.
    """
    rng = np.random.default_rng(FIXED_STREAM)
    names = _names(WIDTH)
    lines = ["# sequential family"]
    for i in range(1, WIDTH + 1):
        lines.append(_keyset_text([list(range(i))] + [[a] for a in range(i, WIDTH)], names))
    lines.append("# random key sets, one m-attribute key")
    for m in range(2, 6):
        pick = sorted(rng.choice(WIDTH, size=m, replace=False).tolist())
        rest = [[a] for a in range(WIDTH) if a not in pick]
        lines.append(_keyset_text([pick] + rest, names))
    return "\n".join(lines) + "\n"


def gen_bulk(rng: np.random.Generator, scale: Scale, out: Path) -> None:
    """Total relation with graded column cardinalities and planted
    exact-duplicate rows."""
    n = scale.bulk_rows
    cells = np.stack([rng.integers(0, c, size=n) for c in scale.bulk_cards], axis=1)
    planted = max(1, int(round(n * scale.dup_share)))
    targets = rng.choice(n, size=planted, replace=False)
    sources = rng.integers(0, n, size=planted)
    cells[targets] = cells[sources]
    _write_csv(out / "bulk.csv", cells, WIDTH)
    (out / "keysets.txt").write_text(_validation_keysets(), encoding="utf-8")


def gen_nullheavy(rng: np.random.Generator, scale: Scale, out: Path) -> None:
    """30% missing cells, three values per column.

    A row with z missing cells joins up to 3^z blocks of X_1, so the count
    of rows per z drives the work; it is fixed at its expected binomial
    share. Even so, the block counts of random relations swing the work by
    10% or more, so the cells come from the fixed stream. The seed shuffles
    the rows and renames the values of each column, which leaves the
    blocks and their sizes unchanged.
    """
    n = scale.null_rows
    fixed = np.random.default_rng([FIXED_STREAM, 3])
    share = [math.comb(WIDTH, z) * 0.3**z * 0.7 ** (WIDTH - z) for z in range(WIDTH + 1)]
    per_z = [round(n * p) for p in share]
    per_z[2] += n - sum(per_z)
    cells = fixed.integers(0, 3, size=(n, WIDTH))
    for row, z in enumerate(fixed.permutation(np.repeat(np.arange(WIDTH + 1), per_z))):
        cells[row, fixed.choice(WIDTH, size=z, replace=False)] = -1
    for j in range(WIDTH):
        rename = np.append(rng.permutation(3), -1)  # index -1 keeps a missing cell missing
        cells[:, j] = rename[cells[:, j]]
    cells = cells[rng.permutation(n)]
    _write_csv(out / "nullheavy.csv", cells, WIDTH)
    (out / "keysets.txt").write_text(_validation_keysets(), encoding="utf-8")


def random_3cnf(rng: np.random.Generator, num_vars: int, num_clauses: int) -> list[list[int]]:
    """Clauses of three distinct variables with random signs (DIMACS ints)."""
    clauses = []
    for _ in range(num_clauses):
        vs = rng.choice(num_vars, size=3, replace=False) + 1
        signs = rng.choice((-1, 1), size=3)
        clauses.append((vs * signs).tolist())
    return clauses


def dimacs_text(num_vars: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def _models(num_vars: int, clauses: list[list[int]]) -> np.ndarray:
    """Truth table: entry a is true iff assignment a (bit i = variable
    i + 1) satisfies every clause."""
    bits = ((np.arange(1 << num_vars)[:, None] >> np.arange(num_vars)) & 1).astype(np.uint8)
    ok = np.ones(1 << num_vars, dtype=bool)
    for clause in clauses:
        sat = np.zeros(1 << num_vars, dtype=bool)
        for lit in clause:
            sat |= bits[:, abs(lit) - 1] == (1 if lit > 0 else 0)
        ok &= sat
    return ok


def cnf_satisfiable(num_vars: int, clauses: list[list[int]]) -> bool:
    return bool(_models(num_vars, clauses).any())


def _uses_all(num_vars: int, clauses: list[list[int]]) -> bool:
    return len({abs(x) for c in clauses for x in c}) == num_vars


def _family_text(names: list[str], sigma: list[list[list[int]]], phi: list[list[int]] | None) -> str:
    lines = ["schema: " + ",".join(names)]
    lines.extend(_keyset_text(ks, names) for ks in sigma)
    if phi is not None:
        lines.append("phi: " + _keyset_text(phi, names))
    return "\n".join(lines) + "\n"


def _random_keyset(rng: np.random.Generator, width: int, nkeys: int, max_key: int) -> list[list[int]]:
    keys: set[tuple[int, ...]] = set()
    while len(keys) < nkeys:
        size = int(rng.integers(1, max_key + 1))
        keys.add(tuple(sorted(rng.choice(width, size=size, replace=False).tolist())))
    return [list(k) for k in sorted(keys)]


def implied_two_row(width: int, sigma: list[list[list[int]]], phi: list[list[int]]) -> bool:
    """Implication by enumerating every two-row pattern: per attribute the
    rows are equal and total (0), unequal and total (1), or not both total
    (2). ``phi`` is implied iff no pattern separates every member of
    ``sigma`` while leaving ``phi`` unseparated."""
    states = (np.arange(3**width)[:, None] // 3 ** np.arange(width)) % 3

    def separated(ks: list[list[int]]) -> np.ndarray:
        out = np.zeros(len(states), dtype=bool)
        for key in ks:
            cols = states[:, key]
            out |= (cols != 2).all(axis=1) & (cols == 1).any(axis=1)
        return out

    bad = ~separated(phi)
    for ks in sigma:
        bad &= separated(ks)
    return not bad.any()


def minimal_transversals(width: int, edges: list[int]) -> set[int]:
    """Bitmasks of all minimal hitting sets of the bitmask ``edges``, by
    testing every subset of the ``width`` vertices."""
    masks = np.arange(1 << width, dtype=np.int64)
    hits = np.ones(len(masks), dtype=bool)
    for e in edges:
        hits &= (masks & e) != 0
    minimal = hits.copy()
    for bit in range(width):
        minimal &= ((masks >> bit) & 1 == 0) | ~hits[masks ^ (1 << bit)]
    return set(np.nonzero(minimal)[0].tolist())


def first_model_rank(num_vars: int, clauses: list[list[int]]) -> int | None:
    """Rank of the first satisfying assignment in the order in which
    ``implies`` visits key choices of a ``from_3sat`` instance: x1 is the
    most significant variable and false comes before true. ``None`` when
    the formula is unsatisfiable."""
    ok = _models(num_vars, clauses)
    if not ok.any():
        return None
    bits = (np.arange(1 << num_vars)[:, None] >> np.arange(num_vars)) & 1
    ranks = (bits << (num_vars - 1 - np.arange(num_vars))).sum(axis=1)
    return int(ranks[ok].min())


def _sat_instance(rng: np.random.Generator, num_vars: int, num_clauses: int, want_sat: bool) -> list[list[int]]:
    """A formula with the wanted answer. For a satisfiable one, of five
    candidates the one whose first model has the median rank is kept, so
    the early exit of ``implies`` comes after a seed-independent share of
    the choices."""
    found: list[tuple[int, int, list[list[int]]]] = []
    while len(found) < (5 if want_sat else 1):
        clauses = random_3cnf(rng, num_vars, num_clauses)
        if not _uses_all(num_vars, clauses):
            continue
        rank = first_model_rank(num_vars, clauses)
        if (rank is not None) == want_sat:
            found.append((rank or 0, len(found), clauses))
    return sorted(found)[len(found) // 2][2]


def gen_implies(rng: np.random.Generator, scale: Scale, out: Path) -> None:
    """3-CNF implication instances, random families, and unary families
    for Armstrong relations.

    Each 3-CNF size gets one satisfiable formula below the threshold ratio
    (an early-exit "not implied") and one unsatisfiable formula above it (a
    full-enumeration "implied"), so the work per size does not depend on
    the seed's luck. Sizes stop at 15 variables and repeat 14, so that no
    single formula dominates the kind's time and its timing noise. How long
    ``implies`` enumerates still swings with the formula, so the formulas
    come from the fixed stream and the seed shuffles their clauses and the
    literals in each clause, which leaves the instance unchanged. Random families alternate implied and not implied.
    """
    d = out / "sat"
    d.mkdir()
    fixed = np.random.default_rng([FIXED_STREAM, 4])
    for i, v in enumerate(scale.sat_vars):
        for ratio, kind in ((3.0, "sat"), (6.0, "unsat")):
            clauses = _sat_instance(fixed, v, int(round(v * ratio)), want_sat=kind == "sat")
            clauses = [[c[j] for j in rng.permutation(3)] for c in (clauses[k] for k in rng.permutation(len(clauses)))]
            (d / f"implies_{i:02d}_v{v}_{kind}.cnf").write_text(dimacs_text(v, clauses), encoding="utf-8")

    d = out / "families"
    d.mkdir()
    for i in range(scale.families):
        width = int(scale.family_attrs[i % len(scale.family_attrs)])
        names = [f"b{j}" for j in range(width)]
        while True:
            members = int(rng.integers(2, 5))
            sigma = [_random_keyset(rng, width, int(rng.integers(1, 4)), 3) for _ in range(members)]
            phi = _random_keyset(rng, width, int(rng.integers(2, 7)), 2)
            if implied_two_row(width, sigma, phi) == (i % 2 == 0):
                break
        (d / f"family_{i:02d}.txt").write_text(_family_text(names, sigma, phi), encoding="utf-8")

    d = out / "armstrong"
    d.mkdir()
    lo, hi = scale.armstrong_attrs
    mlo, mhi = scale.armstrong_members
    fixed = np.random.default_rng([FIXED_STREAM, 1])
    for i in range(scale.armstrong):
        # Widths, member counts and key counts (2, 3, 4, 2, ...) follow a
        # fixed schedule and the members come from the fixed stream; the
        # seed shuffles their order, which the transversal search ignores.
        width = lo + i % (hi - lo + 1)
        members = mlo + (mhi - mlo) * i // max(1, scale.armstrong - 1)
        sigma = [sorted(fixed.choice(width, size=2 + j % 3, replace=False).tolist()) for j in range(members)]
        sigma = [sigma[j] for j in rng.permutation(members)]
        names = [f"c{j}" for j in range(width)]
        text = _family_text(names, [[[a] for a in attrs] for attrs in sigma], None)
        (d / f"armstrong_{i:02d}.txt").write_text(text, encoding="utf-8")


def gen_proofs(rng: np.random.Generator, scale: Scale, out: Path) -> None:
    """Unsatisfiable 3-CNF formulas whose ``from_3sat`` instances are
    implied, so each has a derivation to format, parse and check.

    Proof size swings by about 10% between random formulas of one size, so
    the formulas come from the fixed stream. The seed renames the variables
    and flips the signs of their literals, which keeps the formula
    unsatisfiable and moves the proof size by a few percent.
    """
    d = out / "proof"
    d.mkdir()
    fixed = np.random.default_rng([FIXED_STREAM, 2])
    for i, v in enumerate(scale.proof_vars):
        clauses = _sat_instance(fixed, v, 8 * v, want_sat=False)
        rename = rng.permutation(v) + 1
        flip = rng.choice((-1, 1), size=v)
        clauses = [[int(np.sign(x)) * rename[abs(x) - 1] * flip[abs(x) - 1] for x in c] for c in clauses]
        (d / f"proof_{i:02d}_v{v}.cnf").write_text(dimacs_text(v, clauses), encoding="utf-8")


_GENERATORS = {
    "validate-bulk": gen_bulk,
    "validate-nullheavy": gen_nullheavy,
    "reason-implies": gen_implies,
    "reason-proofs": gen_proofs,
}


def generate(workload: str, seed: int, out: Path, scale: Scale = FULL) -> None:
    """Write the inputs of ``workload`` for ``seed`` into the empty dir ``out``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    _GENERATORS[workload](rng, scale, out)


def digests(root: Path) -> dict[str, dict[str, object]]:
    """Size and sha256 of every input file, keyed by relative path."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        out[path.relative_to(root).as_posix()] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return out


if __name__ == "__main__":
    workload, seed, target = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    generate(workload, seed, target, TINY if sys.argv[4:] == ["tiny"] else FULL)
