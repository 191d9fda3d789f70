"""Armstrong relations for the unary fragment.

For unary consequences only the attribute union of each key set in the
family matters. Treat those unions as hyperedges over the schema: the
complements of the minimal transversals are the anti-keys, the maximal
attribute sets on which two rows may agree without violating the family.

A total relation realizing every anti-key as an exact pairwise agreement
set, and never letting a pair agree on a whole union, satisfies exactly
the implied unary key sets. :func:`generate_armstrong` builds one as a
chain: row 0 is fresh everywhere, row i repeats row i-1 exactly on the
i-th anti-key and is fresh elsewhere, so non-adjacent rows agree on
intersections of consecutive anti-keys, which are again agreement-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AttrSet, KeySet, Relation, Schema, attr_sort_key

__all__ = [
    "AntiKeyReport",
    "Hypergraph",
    "anti_keys",
    "generate_armstrong",
    "is_armstrong_unary",
    "minimal_transversals",
    "size_bounds",
]


@dataclass(frozen=True)
class Hypergraph:
    schema: Schema
    edges: frozenset[AttrSet]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(frozenset(e) for e in self.edges))
        width = len(self.schema)
        for edge in self.edges:
            if not edge:
                raise ValueError("hypergraph edges must be non-empty")
            if any(v >= width for v in edge):
                raise ValueError("edge vertex outside the schema")


def _minimal_only(sets: set[AttrSet]) -> set[AttrSet]:
    kept: list[AttrSet] = []
    for s in sorted(sets, key=len):
        if not any(k < s for k in kept):
            kept.append(s)
    return set(kept)


def minimal_transversals(h: Hypergraph) -> tuple[AttrSet, ...]:
    """All minimal hitting sets, built edge by edge.

    Partial transversals are extended with each new edge's vertices and
    pruned to minimal ones after every edge, so intermediate families stay
    small in practice.
    """
    partial: set[AttrSet] = {frozenset()}
    for edge in sorted(h.edges, key=attr_sort_key):
        grown: set[AttrSet] = set()
        for t in partial:
            if t & edge:
                grown.add(t)
            else:
                grown.update(t | {v} for v in edge)
        partial = _minimal_only(grown)
    return tuple(sorted(partial, key=attr_sort_key))


@dataclass(frozen=True)
class AntiKeyReport:
    transversals: tuple[AttrSet, ...]
    anti_keys: tuple[AttrSet, ...]


def anti_keys(sigma: Sequence[KeySet], schema: Schema) -> AntiKeyReport:
    """Anti-keys of a key-set family: complements of the minimal
    transversals of the family's attribute unions."""
    sigma = tuple(sigma)
    if not sigma:
        raise ValueError("anti-keys need a non-empty family")
    for ks in sigma:
        if not ks.fits(schema):
            raise ValueError("key set references attributes outside the schema")
    edges = frozenset(ks.attributes for ks in sigma)
    transversals = minimal_transversals(Hypergraph(schema, edges))
    full = schema.all_attrs()
    aks = tuple(sorted((full - t for t in transversals), key=attr_sort_key))
    return AntiKeyReport(transversals, aks)


def generate_armstrong(sigma: Sequence[KeySet], schema: Schema) -> Relation:
    """Total relation satisfying exactly the unary key sets implied by
    ``sigma``: one row more than there are anti-keys, chained so that
    consecutive rows agree exactly on one anti-key each.

    Values are generated as ``v<attribute>_<counter>`` and never repeat
    within a column except where the chain repeats them on purpose.
    """
    report = anti_keys(sigma, schema)
    counters = [0] * len(schema)

    def fresh(col: int) -> str:
        value = f"v{schema.name(col)}_{counters[col]}"
        counters[col] += 1
        return value

    width = len(schema)
    rows: list[tuple[str, ...]] = [tuple(fresh(c) for c in range(width))]
    for anti in report.anti_keys:
        prev = rows[-1]
        rows.append(tuple(prev[c] if c in anti else fresh(c) for c in range(width)))
    return Relation.from_values(schema, rows)


def is_armstrong_unary(relation: Relation, sigma: Sequence[KeySet], *, max_attrs: int = 20) -> bool:
    """Check the two Armstrong conditions against ``sigma``:

    every anti-key is the exact agreement set of some row pair, and no row
    pair agrees on all attributes of any member's union. Pair scan on the
    relation's codes plus anti-key enumeration, hence the schema-size cap.
    """
    if len(relation.schema) > max_attrs:
        raise ValueError(f"schema has {len(relation.schema)} attributes, cap is {max_attrs}")
    report = anti_keys(sigma, relation.schema)
    unions = {ks.attributes for ks in sigma}
    codes = relation.codes
    patterns: set[bytes] = set()
    for i in range(len(codes) - 1):
        # row i's agreement with each later row: equal codes, both present
        patterns.update(map(bytes, (codes[i + 1 :] == codes[i]) & (codes[i] >= 0)))
    agreements = {frozenset(np.flatnonzero(np.frombuffer(p, dtype=bool)).tolist()) for p in patterns}
    safe = not any(u <= agree for u in unions for agree in agreements)
    return safe and all(anti in agreements for anti in report.anti_keys)


def size_bounds(num_anti_keys: int) -> tuple[int, int]:
    """Minimum and maximum rows an Armstrong relation needs for ``a``
    anti-keys: each of the a agreement sets needs its own row pair, so m
    rows suffice only when m*(m-1)/2 >= a; the chain construction shows
    a + 1 rows always suffice."""
    if num_anti_keys < 1:
        raise ValueError("need at least one anti-key")
    m = 1
    while m * (m - 1) // 2 < num_anti_keys:
        m += 1
    return m, num_anti_keys + 1
