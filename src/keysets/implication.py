"""Deciding logical implication for families of key sets.

``sigma`` implies ``phi`` when every relation satisfying every member of
``sigma`` also satisfies ``phi``. Whether that holds is decided without
building relations: for each way of choosing one key from each member of
``sigma``, collect the keys of ``phi`` contained in the union of the
chosen keys; the choice is fine iff some chosen key is contained in the
union of that collection. If every choice is fine, ``phi`` is implied.
A failing choice yields a two-row counterexample relation directly.

``implies`` picks keys depth first. It skips each key inside the keys of
``phi`` it contains (any choice holding it is fine), and every
completion of a prefix that is already fine: the chosen keys and the
keys of ``phi`` inside their union only grow as keys are added. A node
tests only the keys of ``phi`` that meet its new key, so its cost
follows those, not the size of ``phi``. The witness is the canonically
smallest failing choice. For a unary ``phi`` the skip is the paper's
criterion, and no kept key is ever covered, so at most ``len(sigma)``
nodes are visited. In general the problem is coNP-complete; the search
stops after :data:`CHOICE_CAP` nodes unless the kept keys' choice
product is within that cap too. The search can record each skipped key
and pruned prefix in place, in order: that is the choice table
:func:`~keysets.inference.derive_keyset` writes as its proof, of the
size of the search tree, not of the product.

An empty ``sigma`` implies nothing: two identical total rows satisfy
every member of the empty family and violate any key set.

Also here: the paper's unary rule without a witness, a brute-force
oracle that enumerates all behaviorally distinct two-row relations, and
a reduction from 3-CNF formulas producing instances whose implication
answer is the unsatisfiability of the formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING, Sequence

from .core import AttrSet, KeySet, KeySetFamily, ParseError, ResourceLimit, Schema

if TYPE_CHECKING:
    from .relation import Relation

__all__ = [
    "BRUTEFORCE_ATTR_CAP",
    "CHOICE_CAP",
    "CnfFormula",
    "CounterexampleWitness",
    "DIMACS_VARIABLE_CAP",
    "Decision",
    "ImplicationInstance",
    "build_counterexample",
    "from_3sat",
    "implies",
    "implies_bruteforce",
    "implies_unary",
    "parse_dimacs",
    "satisfiable",
]

CHOICE_CAP = 10**6
DIMACS_VARIABLE_CAP = 10**5
BRUTEFORCE_ATTR_CAP = 12


@dataclass(frozen=True)
class ImplicationInstance:
    schema: Schema
    sigma: KeySetFamily
    phi: KeySet

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", tuple(self.sigma))
        for ks in (*self.sigma, self.phi):
            if not ks.fits(self.schema):
                raise ValueError("key set references attributes outside the schema")


@dataclass(frozen=True)
class CounterexampleWitness:
    """A failing key choice plus the two-row relation built from it."""

    choice: tuple[AttrSet, ...]
    relation: Relation


@dataclass(frozen=True)
class Decision:
    implied: bool
    witness: CounterexampleWitness | None


def build_counterexample(choice: Sequence[AttrSet], inst: ImplicationInstance) -> Relation:
    """Two-row relation satisfying ``sigma`` and violating ``phi``.

    ``choice`` must pick one key per member of ``sigma`` and be failing.
    Row 0 is constant "0" and total. For the empty family the second row
    is identical; otherwise it carries "1" on the smallest free attribute
    of each chosen key, "0" elsewhere on the union of the chosen keys, and
    missing values everywhere else.

    This is the one call in this module that builds a relation, so it
    imports :mod:`keysets.relation`, and numpy with it, on first use;
    deciding implication without a witness never loads them.
    """
    from .relation import Relation

    schema = inst.schema
    choice = tuple(choice)
    if len(choice) != len(inst.sigma):
        raise ValueError("choice must pick exactly one key per member of sigma")
    base = tuple("0" for _ in range(len(schema)))
    if not choice:
        return Relation.from_values(schema, [base, base])
    for key, ks in zip(choice, inst.sigma):
        if key not in ks:
            raise ValueError("choice contains a key not drawn from its key set")
    union = frozenset().union(*choice)
    covered = frozenset().union(*(y for y in inst.phi.keys if y <= union))
    if any(x <= covered for x in choice):
        raise ValueError("choice is not failing, no counterexample exists for it")
    marks = {min(x - covered) for x in choice}
    second = tuple(
        "1" if a in marks else "0" if a in union else None for a in range(len(schema))
    )
    return Relation.from_values(schema, [base, second])


def implies(inst: ImplicationInstance) -> Decision:
    """Decide whether ``sigma`` implies ``phi``; witness a non-implication.

    Runs the search the module docstring describes, so a returned witness
    is the canonically smallest failing choice, as a walk over the whole
    product would find, and a unary ``phi`` takes at most ``len(sigma)``
    nodes. Raises :class:`ResourceLimit` past :data:`CHOICE_CAP` nodes
    when the product of the kept keys' counts is past it too.
    """
    if not inst.sigma:
        return Decision(False, CounterexampleWitness((), build_counterexample((), inst)))
    picks, _ = _search(inst.sigma, inst.phi)
    if picks is None:
        return Decision(True, None)
    choice = tuple(ks.sorted_keys[i] for ks, i in zip(inst.sigma, picks))
    return Decision(False, CounterexampleWitness(choice, build_counterexample(choice, inst)))


def _mask(attrs: AttrSet) -> int:
    return sum(1 << a for a in attrs)


def _covered(union: int, phi: list[int]) -> int:
    """``covered(union)``: the union of the keys of ``phi`` inside ``union``."""
    covered = 0
    for y in phi:
        if y & union == y:
            covered |= y
    return covered


def _search(
    sigma: Sequence[KeySet], phi: KeySet, leaves: list[tuple[int, ...]] | None = None
) -> tuple[tuple[int, ...] | None, int]:
    """The first failing choice, as one key index per member of a
    non-empty ``sigma``, or ``None``; and the number of nodes visited.

    The walk takes each member's keys in index order and skips a key
    ``x ⊆ covered(x)`` where it reaches it: no node, and not counted in
    the budget or the product. A key smaller than every key of ``phi``
    never is. ``(None, 0)`` if a member has only skipped keys. A node's
    prefix is fine, and its subtree skipped, once one of its keys lies
    inside ``covered(union)``, the union of the keys of ``phi`` inside the
    prefix's union: both only grow as keys are added. Skipped keys and
    pruned prefixes go to ``leaves``, when given, in order, as key indices
    per member spanned. Attribute sets are int bitmasks; while ``covered``
    stays as it was at the parent, only the new key needs the test. A
    node scans only the keys of ``phi`` that meet its new key, listed once
    per call: a key of ``phi`` inside the union that misses the new key
    lies inside the parent's union, so it is already in the parent's
    ``covered``. The root skip reads the same lists, since a key of
    ``phi`` inside a key meets it.
    Raises :class:`ResourceLimit` on node ``CHOICE_CAP + 1`` when the kept
    keys' choice product exceeds it.
    """
    goal = [_mask(y) for y in phi.sorted_keys]
    least = min(y.bit_count() for y in goal)
    masks = [[_mask(x) for x in ks.sorted_keys] for ks in sigma]
    meeting = {x: [y for y in goal if y & x] for keys in masks for x in keys}  # per key: the phi keys it meets
    members = [[x if x.bit_count() < least or x & ~_covered(x, meeting[x]) else 0 for x in keys] for keys in masks]  # 0: skipped
    if not all(any(keys) for keys in members):
        return None, 0
    depth = len(members)
    picks = [-1] * depth
    chosen = [0] * depth
    unions = [0] * (depth + 1)
    covers = [0] * (depth + 1)
    nodes = 0
    cap = CHOICE_CAP
    product = prod(len(keys) - keys.count(0) for keys in members)
    d = 0
    while d >= 0:
        picks[d] += 1
        if picks[d] == len(members[d]):
            picks[d] = -1
            d -= 1
            continue
        x = chosen[d] = members[d][picks[d]]
        if x:
            nodes += 1
            if nodes > cap and product > cap:
                raise ResourceLimit("search nodes", nodes, cap)
            union = unions[d] | x
            covered = covers[d]
            for y in meeting[x]:
                if y & union == y:
                    covered |= y
            if not (x & covered == x or covered != covers[d] and any(c & covered == c for c in chosen[:d])):
                if d + 1 == depth:
                    return tuple(picks), nodes
                unions[d + 1] = union
                covers[d + 1] = covered
                d += 1
                continue
        if leaves is not None:
            leaves.append(tuple(picks[: d + 1]))
    return None, nodes


def implies_unary(sigma: Sequence[KeySet], phi: KeySet) -> bool:
    """Implication restricted to a unary ``phi`` (singleton keys only).

    Implied iff the attribute union of some member of ``sigma`` sits
    inside the attribute set of ``phi``. Cost is linear in the total size
    of ``sigma`` for a fixed ``phi``. :func:`implies` applies the same
    criterion, with a witness; this stays as the paper's rule and a check.
    """
    if not phi.is_unary():
        raise ValueError("phi must contain only singleton keys")
    allowed = phi.attributes
    return any(ks.attributes <= allowed for ks in sigma)


def implies_bruteforce(inst: ImplicationInstance) -> bool:
    """Oracle: enumerate all behaviorally distinct two-row relations.

    Per attribute a row pair is either equal and total, unequal and total,
    or not both total; nothing else matters for key sets. ``sigma``
    implies ``phi`` iff no pattern satisfies all of ``sigma`` while
    violating ``phi``. An attribute that no key mentions cannot change the
    outcome, so only the k mentioned ones are enumerated, 3^k patterns.
    Raises :class:`ResourceLimit` when k exceeds
    :data:`BRUTEFORCE_ATTR_CAP`, whatever the schema size.
    """
    sigma_keys = [ks.sorted_keys for ks in inst.sigma]
    phi_keys = inst.phi.sorted_keys
    attrs = sorted(inst.phi.attributes.union(*(ks.attributes for ks in inst.sigma)))
    if len(attrs) > BRUTEFORCE_ATTR_CAP:
        raise ResourceLimit("brute-force attribute set", len(attrs), BRUTEFORCE_ATTR_CAP)

    def separated(keys: tuple[AttrSet, ...], total: frozenset[int], neq: frozenset[int]) -> bool:
        return any(x <= total and not x.isdisjoint(neq) for x in keys)

    for states in itertools.product((0, 1, 2), repeat=len(attrs)):
        total = frozenset(a for a, s in zip(attrs, states) if s != 2)
        neq = frozenset(a for a, s in zip(attrs, states) if s == 1)
        if separated(phi_keys, total, neq):
            continue
        if all(separated(keys, total, neq) for keys in sigma_keys):
            return False
    return True


# --------------------------------------------------------------------------
# 3-CNF reduction: implication answers are co-satisfiability answers.

Literal = tuple[str, bool]


@dataclass(frozen=True)
class CnfFormula:
    """CNF with at most three literals per clause.

    A literal is ``(variable, positive)``. Clauses are literal sets.
    """

    variables: tuple[str, ...]
    clauses: tuple[frozenset[Literal], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "clauses", tuple(frozenset(c) for c in self.clauses))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        known = set(self.variables)
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            if len(clause) > 3:
                raise ValueError(f"clause has {len(clause)} literals, at most 3 allowed")
            for var, _ in clause:
                if var not in known:
                    raise ValueError(f"clause uses undeclared variable {var!r}")


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF; variables are named x1..xV.

    Clauses longer than three literals are rejected, as is a clause with
    no literals, a missing terminating 0 or a second problem line. A
    problem line may declare at most :data:`DIMACS_VARIABLE_CAP`
    variables, because one name is built per declared variable. Every
    error is a :class:`ParseError` that names the line; errors found at
    the end of the input name its last line.
    """
    num_vars: int | None = None
    clauses: list[frozenset[Literal]] = []
    current: set[Literal] = set()
    lineno = 0

    def fail(message: str) -> ParseError:
        return ParseError(f"line {lineno}: {message}" if lineno else message, lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise fail("second problem line")
            parts = line.split()
            try:
                counts = [int(part) for part in parts[2:]]
            except ValueError:
                counts = []
            if parts[:2] != ["p", "cnf"] or len(counts) != 2 or min(counts) < 0:
                raise fail(f"malformed problem line: {raw!r}")
            if counts[0] > DIMACS_VARIABLE_CAP:
                raise fail(f"declares {counts[0]} variables, cap is {DIMACS_VARIABLE_CAP}")
            num_vars = counts[0]
            continue
        if num_vars is None:
            raise fail("clause data before the problem line")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise fail(f"literal {tok!r} is not an integer") from None
            if lit == 0:
                if not current:
                    raise fail("empty clause")
                if len(current) > 3:
                    raise fail(f"clause has {len(current)} literals, at most 3 allowed")
                clauses.append(frozenset(current))
                current = set()
                continue
            var = abs(lit)
            if var > num_vars:
                raise fail(f"literal {lit} exceeds declared variable count {num_vars}")
            current.add((f"x{var}", lit > 0))
    if current:
        raise fail("last clause is not terminated by 0")
    if num_vars is None:
        raise fail("missing problem line")
    return CnfFormula(tuple(f"x{i}" for i in range(1, num_vars + 1)), tuple(clauses))


def _occurring(formula: CnfFormula) -> list[str]:
    """The variables some clause mentions, in declaration order."""
    seen = {var for clause in formula.clauses for var, _ in clause}
    return [v for v in formula.variables if v in seen]


def satisfiable(formula: CnfFormula) -> bool:
    """Truth-table satisfiability over the variables that actually occur.

    The table has ``2**k`` assignments for ``k`` occurring variables; when
    that exceeds :data:`CHOICE_CAP` it raises :class:`ResourceLimit` before
    enumerating any.
    """
    used = _occurring(formula)
    if 2 ** len(used) > CHOICE_CAP:
        raise ResourceLimit("truth-table assignments", 2 ** len(used), CHOICE_CAP)
    for values in itertools.product((False, True), repeat=len(used)):
        assignment = dict(zip(used, values))
        if all(any(assignment[var] == pos for var, pos in clause) for clause in formula.clauses):
            return True
    return False


def from_3sat(formula: CnfFormula) -> ImplicationInstance:
    """Implication instance whose answer is the formula's unsatisfiability.

    For each occurring variable ``p`` the schema gets attributes ``p`` and
    ``not_p`` and ``sigma`` the two-key unary key set ``{{p},{not_p}}``;
    ``phi`` collects one key per clause, made of the clause's literal
    attributes. Picking one key per member of ``sigma`` then enumerates
    truth assignments (the chosen literal is the one read as false), and
    a choice fails exactly when no clause has all its literals false.
    Hence ``implies(...)`` is true iff the formula is unsatisfiable.
    """
    if not formula.clauses:
        raise ValueError("formula has no clauses")
    used = _occurring(formula)
    for var in used:
        if var.startswith("not_"):
            raise ValueError(f"variable name {var!r} collides with the not_ prefix")
    names: list[str] = []
    for var in used:
        names.extend((var, f"not_{var}"))
    schema = Schema(tuple(names))
    sigma = tuple(
        KeySet.of({schema.index(var)}, {schema.index(f"not_{var}")}) for var in used
    )
    phi_keys = {
        frozenset(schema.index(var if pos else f"not_{var}") for var, pos in clause)
        for clause in formula.clauses
    }
    return ImplicationInstance(schema, sigma, KeySet(frozenset(phi_keys)))
