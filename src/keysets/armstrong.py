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

from . import implication
from .core import AttrSet, KeySet, Relation, ResourceLimit, Schema, attr_sort_key

__all__ = [
    "AntiKeyReport",
    "Hypergraph",
    "TRANSVERSAL_CAP",
    "anti_keys",
    "armstrong_chain",
    "generate_armstrong",
    "is_armstrong_unary",
    "minimal_transversals",
    "size_bounds",
]

TRANSVERSAL_CAP = 5000


@dataclass(frozen=True)
class Hypergraph:
    schema: Schema
    edges: frozenset[AttrSet]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(frozenset(e) for e in self.edges))
        for edge in self.edges:
            if not edge:
                raise ValueError("hypergraph edges must be non-empty")
            if any(not isinstance(v, int) or not 0 <= v < len(self.schema) for v in edge):
                raise ValueError("edge vertex outside the schema")


def minimal_transversals(h: Hypergraph) -> tuple[AttrSet, ...]:
    """All minimal hitting sets, by MMCS (Murakami & Uno, "Efficient
    algorithms for dualizing large-scale hypergraphs", Discrete Applied
    Mathematics, 2014) on int bitmasks.

    The walk grows a set ``S`` from the empty set. A node branches on the
    uncovered edge ``F`` with the fewest candidate vertices: the branch of
    each candidate ``v`` of ``F`` adds ``v`` to ``S`` and keeps the
    candidates of ``F`` after ``v`` out of it, so each transversal is
    reached once, in the branch of its last vertex in ``F``. A vertex of
    ``S`` owns the edges it alone meets (its critical edges), and ``v`` is
    added only if every vertex of ``S`` still owns one. So every set the
    walk reaches is minimal, and it is an answer once no edge is uncovered.
    Adding or removing ``v`` touches only the edges that meet ``v``. The
    walk keeps its own stack, so its depth, the size of ``S``, is not held
    to Python's recursion limit.

    Answer ``TRANSVERSAL_CAP + 1`` (n disjoint pairs have 2^n) and node
    ``implication.CHOICE_CAP + 1`` raise :class:`ResourceLimit`.
    """
    edges = sorted(h.edges, key=attr_sort_key)
    by_bit = {1 << i: sum(1 << v for v in e) for i, e in enumerate(edges)}
    meets: list[list[int]] = [[] for _ in h.schema.attributes]
    for i, edge in enumerate(edges):
        for v in edge:
            meets[v].append(i)
    meet_masks = [sum(1 << i for i in ids) for ids in meets]
    owner = [-1] * len(edges)  # for a critical edge, the one vertex of S that meets it
    owned = [0] * len(meets)  # critical edges per vertex of S
    uncov = (1 << len(edges)) - 1
    cand = (1 << len(meets)) - 1
    path: list[int] = []  # S, in the order the walk added its vertices
    found: list[list[int]] = []
    node_cap = implication.CHOICE_CAP
    nodes = 0
    # per open node: [candidates left to branch on, vertex on trial, edges it
    # covered, (edge, owner) pairs whose owner it took]
    stack: list[list] = []
    while True:
        nodes += 1
        if nodes > node_cap:
            raise ResourceLimit("transversal search nodes", nodes, node_cap)
        if not uncov:
            found.append(sorted(path))
            if len(found) > TRANSVERSAL_CAP:
                raise ResourceLimit("minimal transversal family", len(found), TRANSVERSAL_CAP)
        else:
            # an edge with one candidate is as good as any but one with none
            pick, fewest, rest = 0, len(meets) + 1, uncov
            while rest and fewest > 1:
                low = rest & -rest
                rest ^= low
                c = by_bit[low] & cand
                if c.bit_count() < fewest:
                    pick, fewest = c, c.bit_count()
            if pick:
                cand &= ~pick
                stack.append([pick, -1, 0, ()])
        while stack:
            frame = stack[-1]
            left, v, newly, taken = frame
            if v >= 0:  # undo the vertex on trial
                for i, u in taken:
                    owner[i] = u
                    owned[u] += 1
                uncov |= newly
                path.pop()
                cand |= 1 << v
            if not left:
                stack.pop()
                continue
            low = left & -left
            v = low.bit_length() - 1
            newly = meet_masks[v] & uncov
            uncov ^= newly
            path.append(v)
            owned[v] = newly.bit_count()
            taken = []
            minimal = True
            for i in meets[v]:
                if newly >> i & 1:
                    owner[i] = v
                elif owner[i] >= 0:
                    u = owner[i]
                    owner[i] = -1
                    owned[u] -= 1
                    taken.append((i, u))
                    minimal = minimal and owned[u] > 0
            frame[:] = left ^ low, v, newly, taken
            if minimal:
                break
        else:
            break
    found.sort()
    return tuple(map(frozenset, found))


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
    return armstrong_chain(anti_keys(sigma, schema), schema)


def armstrong_chain(report: AntiKeyReport, schema: Schema) -> Relation:
    """The chain relation of :func:`generate_armstrong` for a report
    :func:`anti_keys` already made, so a caller that wants both pays for
    the transversals once. Each row copies the last and draws fresh
    values only outside its anti-key."""
    prefixes = [f"v{name}_" for name in schema.attributes]
    counters = [1] * len(schema)
    row = [f"{p}0" for p in prefixes]
    rows = [tuple(row)]
    everything = schema.all_attrs()
    for anti in report.anti_keys:
        for c in everything - anti:
            row[c] = f"{prefixes[c]}{counters[c]}"
            counters[c] += 1
        rows.append(tuple(row))
    return Relation.from_values(schema, rows)


def is_armstrong_unary(relation: Relation, sigma: Sequence[KeySet]) -> bool:
    """True iff ``relation`` satisfies exactly the unary key sets that
    ``sigma`` implies, read off the relation's difference sets.

    The difference set of a row pair is the attributes on which both rows
    are total and differ. ``{{a} : a in Y}`` holds iff ``Y`` meets every
    difference set, and ``sigma`` implies it iff ``Y`` contains a member's
    attribute union. So, by transversal duality, the relation is Armstrong
    iff its inclusion-minimal difference sets are the minimal transversals
    of the unions. That holds iff every difference set meets every union
    and every minimal transversal is a difference set. Fewer than two rows
    satisfy every unary key set, as one difference set of the whole schema
    would. A pair scan on the relation's codes, polynomial in its size,
    plus the transversal enumeration, which raises :class:`ResourceLimit`
    past :data:`TRANSVERSAL_CAP`.
    """
    transversals = anti_keys(sigma, relation.schema).transversals
    # one row-major copy: packbits views each row's bits as one record,
    # which needs the rows contiguous
    codes = np.ascontiguousarray(relation.codes)
    patterns: set[bytes] = set()
    for i in range(len(codes) - 1):
        # row i's distinct differences from later rows: both present, codes differ
        later = codes[i + 1 :]
        packed = np.packbits((later != codes[i]) & (later >= 0) & (codes[i] >= 0), axis=1, bitorder="little")
        patterns.update(np.unique(packed.view(f"V{packed.shape[1]}")).tolist())
    masks = {int.from_bytes(p, "little") for p in patterns} if len(codes) > 1 else {(1 << codes.shape[1]) - 1}
    unions = {sum(1 << a for a in ks.attributes) for ks in sigma}
    hitting = all(m & u for m in masks for u in unions)
    return hitting and all(sum(1 << a for a in t) in masks for t in transversals)


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
