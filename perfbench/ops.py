"""The benchmark's ops and the independent checks of their answers.

An op is one question a user asks the library: validate a key set, ask
whether a family implies a key set, derive or check a proof, build an
Armstrong relation. ``run(call, traced)`` makes the library calls through
``call`` (see :mod:`spans`) and returns the answer; ``check(answer)``
returns ``None`` or a failure message; ``counts(answer)`` returns the
work counts that must repeat exactly for the same seed.

Checks use a route independent of the code under test where one exists:
duplicate groups read from the CSV text, the all-pairs route, maximal
cliques of the unseparated-pair graph of the CSV text, numpy truth
tables, a definitional two-row test, ``implies_bruteforce``, a format and
parse round trip, brute-force transversals and pairwise agreement sets.
Expected answers are computed once, before the measured passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from pathlib import Path
from typing import Callable

import numpy as np

import keysets as K
from inputs import NULL, cnf_satisfiable, minimal_transversals
from load import CSV_NAMES


@dataclass
class Op:
    kind: str
    label: str
    rows: int  # rows validated per call; 1 for the reasoning kinds
    run: Callable
    check: Callable[[object], str | None]
    counts: Callable[[object], dict]


# --------------------------------------------------------------------------
# Validation.


def _duplicate_groups(csv_path: Path) -> set[frozenset[int]]:
    """Row-id groups of identical data lines; the generator never quotes."""
    groups: dict[str, list[int]] = {}
    for i, line in enumerate(csv_path.read_text(encoding="utf-8").splitlines()[1:]):
        groups.setdefault(line, []).append(i)
    return {frozenset(g) for g in groups.values() if len(g) > 1}


def _csv_codes(csv_path: Path) -> np.ndarray:
    """Per-column integer codes of the CSV cells, -1 for a missing value."""
    cells = [line.split(",") for line in csv_path.read_text(encoding="utf-8").splitlines()[1:]]
    codes = np.empty((len(cells), len(cells[0])), dtype=np.int64)
    for j in range(codes.shape[1]):
        index: dict[str, int] = {}
        for i, row in enumerate(cells):
            codes[i, j] = -1 if row[j] == NULL else index.setdefault(row[j], len(index))
    return codes


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _maximal_cliques(codes: np.ndarray, keys) -> set[frozenset[int]]:
    """Maximal sets of two or more rows in which no key separates any pair.

    These are exactly the maximal violating blocks: refinement keeps every
    such set inside one block, and every block is such a set. Rows with the
    same projection-or-missing on every key have the same neighbours, so
    Bron-Kerbosch (with pivoting) runs on those row types.
    """
    sig = np.empty((len(codes), len(keys)), dtype=np.int64)
    for k, key in enumerate(keys):
        cols = codes[:, sorted(key)]
        _, ids = np.unique(cols, axis=0, return_inverse=True)
        sig[:, k] = np.where((cols >= 0).all(axis=1), ids.ravel(), -1)
    types, of_row = np.unique(sig, axis=0, return_inverse=True)
    of_row = of_row.ravel()
    unseparated = ~np.eye(len(types), dtype=bool)
    for a in types.T:
        unseparated &= (a[:, None] < 0) | (a[None, :] < 0) | (a[:, None] == a[None, :])
    adj = [int.from_bytes(np.packbits(r, bitorder="little").tobytes(), "little") for r in unseparated]
    found: list[int] = []

    def expand(clique: int, cand: int, done: int) -> None:
        if not cand and not done:
            found.append(clique)
            return
        pivot = max(_bits(cand | done), key=lambda v: (cand & adj[v]).bit_count())
        for v in _bits(cand & ~adj[pivot]):
            expand(clique | 1 << v, cand & adj[v], done & adj[v])
            cand ^= 1 << v
            done |= 1 << v

    expand(0, (1 << len(types)) - 1, 0)
    members = [np.nonzero(of_row == t)[0].tolist() for t in range(len(types))]
    rows = (frozenset(i for t in _bits(c) for i in members[t]) for c in found)
    return {r for r in rows if len(r) > 1}


def _validate_counts(answer) -> dict:
    blocks, trace = answer
    out = {"violating_rows": len(blocks.row_ids), "maximal_blocks": len(blocks)}
    if trace is not None:
        out["raw_blocks"] = len(trace[-1])
        out["peak_blocks_per_key"] = max(len(state) for state in trace)
        out["peak_block_rows"] = max(sum(len(b) for b in state) for state in trace)
    return out


def _validation_ops(workload: str, loaded: dict, root: Path) -> list[Op]:
    """Per key set: ``violating_blocks`` and ``satisfies``; null-heavy runs
    the all-pairs route first and checks the other two against it, and the
    blocks against the maximal unseparated row sets. Traced passes add
    ``block_trace`` for the refinement share and block counts."""
    relation, family = loaded["relation"], loaded["keysets"]
    n = len(relation)
    bulk = workload == "validate-bulk"
    dups = _duplicate_groups(root / CSV_NAMES[workload]) if bulk else None
    codes = None if bulk else _csv_codes(root / CSV_NAMES[workload])
    ops: list[Op] = []
    for i, ks in enumerate(family):
        if bulk and ks.attributes != relation.schema.all_attrs():
            raise ValueError("the duplicate-group oracle needs key sets covering the schema")
        label = f"ks{i:02d}"
        seen: dict[str, object] = {}
        cliques = None if bulk else _maximal_cliques(codes, list(ks.keys))

        def run_naive(call, traced, ks=ks, seen=seen):
            seen["naive"] = call("validation", "naive", K.violating_tuples_naive, relation, ks)
            return seen["naive"]

        def run_blocks(call, traced, ks=ks, seen=seen):
            seen["blocks"] = call("validation", "violating_blocks", K.violating_blocks, relation, ks)
            trace = call("validation", "block_trace", K.block_trace, relation, ks) if traced else None
            return seen["blocks"], trace

        def run_sat(call, traced, ks=ks):
            return call("validation", "satisfies", K.satisfies, relation, ks)

        def check_blocks(answer, seen=seen, cliques=cliques):
            got = set(answer[0].blocks)
            if bulk:
                return None if got == dups else f"{len(got)} blocks, {len(dups)} duplicate groups"
            naive = seen.pop("naive", None)
            if naive is None:
                return "no all-pairs answer to compare with"
            if answer[0].row_ids != naive:
                return f"blocks cover {len(answer[0].row_ids)} rows, all-pairs {len(naive)}"
            return None if got == cliques else f"{len(got)} blocks, {len(cliques)} maximal unseparated row sets"

        def check_sat(ok, seen=seen):
            blocks = seen.pop("blocks", None)
            if blocks is None:
                return "no violating_blocks answer to compare with"
            return None if ok == (not blocks) else f"satisfies={ok} with {len(blocks)} blocks"

        if not bulk:
            ops.append(Op("naive", label, n, run_naive, lambda ids: None, lambda ids: {"naive_rows": len(ids)}))
        ops.append(Op("validate", label, n, run_blocks, check_blocks, _validate_counts))
        ops.append(Op("satisfies", label, n, run_sat, check_sat, lambda ok: {"satisfied": int(ok)}))
    return ops


# --------------------------------------------------------------------------
# Implication, inference, Armstrong relations.


def _dimacs_clauses(path: Path) -> tuple[int, list[list[int]]]:
    """Variable count and clauses, read without the library's parser."""
    num_vars, clauses = 0, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("p"):
            num_vars = int(line.split()[2])
        elif line.strip() and not line.startswith("c"):
            clauses.append([int(x) for x in line.split()[:-1]])
    return num_vars, clauses


def _separates(a, b, key) -> bool:
    return all(a[i] is not None and b[i] is not None for i in key) and any(a[i] != b[i] for i in key)


def _witness_error(decision, inst) -> str | None:
    """Definitional check of a counterexample: two rows, every member of
    sigma separates them, phi does not."""
    rel = decision.witness.relation
    if len(rel.rows) != 2:
        return f"witness has {len(rel.rows)} rows"
    a, b = rel.rows[0].values, rel.rows[1].values
    if not all(any(_separates(a, b, key) for key in ks.keys) for ks in inst.sigma):
        return "witness violates a member of sigma"
    if any(_separates(a, b, key) for key in inst.phi.keys):
        return "witness satisfies phi"
    return None


def _implies_op(label: str, inst, expected: bool) -> Op:
    def check(decision):
        if decision.implied != expected:
            return f"implied={decision.implied}, expected {expected}"
        return None if decision.implied else _witness_error(decision, inst)

    product = prod(len(ks) for ks in inst.sigma)
    return Op(
        "implies",
        label,
        1,
        lambda call, traced: call("implication", "implies", K.implies, inst),
        check,
        lambda d: {"implied": int(d.implied), "choice_product": product},
    )


def _agreement_sets(rel, width: int) -> set[int]:
    """Bitmask of the attributes on which each row pair agrees (both total)."""
    codes = np.empty((len(rel.rows), width), dtype=np.int64)
    for j in range(width):
        index: dict[str, int] = {}
        for i, row in enumerate(rel.rows):
            v = row.values[j]
            codes[i, j] = -1 if v is None else index.setdefault(v, len(index))
    bits = np.zeros((len(rel.rows), len(rel.rows)), dtype=np.int64)
    for j in range(width):
        col = codes[:, j]
        bits |= ((col[:, None] == col[None, :]) & (col[:, None] >= 0)).astype(np.int64) << j
    upper = np.triu_indices(len(rel.rows), k=1)
    return set(bits[upper].tolist())


def _armstrong_op(label: str, schema, sigma) -> Op:
    width = len(schema)
    unions = [sum(1 << a for a in ks.attributes) for ks in sigma]
    transversals = minimal_transversals(width, unions)
    full = (1 << width) - 1

    def run(call, traced):
        report = call("armstrong", "anti_keys", K.anti_keys, sigma, schema)
        relation = call("armstrong", "generate_armstrong", K.generate_armstrong, sigma, schema)
        return report, relation

    def check(answer):
        report, relation = answer
        got = {sum(1 << a for a in t) for t in report.transversals}
        if got != transversals:
            return f"{len(got)} transversals, brute force finds {len(transversals)}"
        agree = _agreement_sets(relation, width)
        if any(a & u == u for a in agree for u in unions):
            return "a row pair agrees on a whole member union"
        missing = [t for t in transversals if full ^ t not in agree]
        return f"{len(missing)} anti-keys are no agreement set" if missing else None

    return Op(
        "armstrong",
        label,
        1,
        run,
        check,
        lambda ans: {"transversals": len(ans[0].transversals), "armstrong_rows": len(ans[1])},
    )


def _proof_ops(label: str, inst) -> list[Op]:
    """``derive`` formats a proof file; ``check`` parses and checks the text
    the derive op of the same pass produced."""
    made: dict[str, object] = {}

    def derive(call, traced):
        made.clear()
        d = call("inference", "derive_keyset", K.derive_keyset, inst.sigma, inst.phi)
        made["derivation"] = d
        made["text"] = call("inference", "format_derivation", K.format_derivation, d, inst.schema)
        return d, made["text"]

    def check_derive(answer):
        d, _ = answer
        if d.premises != inst.sigma or d.conclusion != inst.phi:
            return "derivation does not lead from sigma to phi"
        return None

    def check_proof(call, traced):
        if "text" not in made:
            raise RuntimeError("no proof text from the derive op")
        parsed, schema = call("inference", "parse_derivation", K.parse_derivation, made["text"])
        return parsed, schema, call("inference", "check_derivation", K.check_derivation, parsed)

    def check_check(answer):
        parsed, schema, ok = answer
        if parsed != made["derivation"] or schema != inst.schema:
            return "format/parse round trip changed the derivation"
        return None if ok else "check_derivation rejected the proof"

    return [
        Op(
            "derive",
            label,
            1,
            derive,
            check_derive,
            lambda ans: {"steps": len(ans[0].steps), "proof_bytes": len(ans[1].encode("utf-8"))},
        ),
        Op("check", label, 1, check_proof, check_check, lambda ans: {"checked_steps": len(ans[0].steps)}),
    ]


def _reason_ops(loaded: dict, root: Path) -> list[Op]:
    ops: list[Op] = []
    for label, inst in loaded["sat"]:
        num_vars, clauses = _dimacs_clauses(root / "sat" / f"{label}.cnf")
        ops.append(_implies_op(label, inst, not cnf_satisfiable(num_vars, clauses)))
    for label, (schema, sigma, phi) in loaded["families"]:
        inst = K.ImplicationInstance(schema, sigma, phi)
        ops.append(_implies_op(label, inst, K.implies_bruteforce(inst)))
    for label, inst in loaded["proof"]:
        ops.extend(_proof_ops(label, inst))
    for label, (schema, sigma) in loaded["armstrong"]:
        ops.append(_armstrong_op(label, schema, sigma))
    return ops


def build_ops(workload: str, loaded: dict, root: Path) -> list[Op]:
    """The workload's batch: one pass runs every op once, in this order."""
    if workload in CSV_NAMES:
        return _validation_ops(workload, loaded, root)
    return _reason_ops(loaded, root)
