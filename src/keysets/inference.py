"""Axiomatic inference for key sets.

Three rules are sound and complete for key-set implication:

* Upward closure: from key set X derive X extended by any further keys.
* Refinement: replace one key by two non-empty parts that union to it.
* Composition: from X1 and X2 derive, for every pair of keys (K1, K2)
  drawn from them, a chosen set Z with Z contained in K1 union K2 and K1
  or K2 contained in Z; the derived key set collects the chosen sets.

Composition generalizes to n premises (some component key must sit inside
each chosen set). A choice table may choose once for a tuple of keys from
the first k premises only: a set inside that tuple's union lies inside
the union of every full tuple it begins. :func:`simulate_nary` replays
any n-ary application in binary Composition steps, cycling through the
premises with a choice rule that reads only the n-ary conclusion, plus
at most one final Upward closure. On a table that :func:`derive_keyset`
reads off a 3-CNF instance, no key set is wider than the table.
:func:`derive_keyset` builds, for any implied key set, a derivation of
the shape one n-ary Composition, then Refinements, then at most one
Upward closure. Its choice table is the implication search's own record,
one entry per key it skips and per prefix it prunes, so a proof has the
size of the search tree rather than of the key-choice product.

Derivations are explicit objects: premises, steps with rule name,
references, parameters and claimed conclusion, and a final conclusion.
:func:`check_derivation` re-runs every step and accepts only exact
matches. A line-oriented text form round-trips through
:func:`format_derivation` and :func:`parse_derivation`. Reading and
writing it takes time linear in the size of the text: each distinct
attribute set is parsed, or written, once per call, and every later
occurrence is a dictionary lookup.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    AttrSet,
    KeySet,
    KeySetFamily,
    ParseError,
    ResourceLimit,
    Schema,
    _QUOTED_BODY,
    _parse_sets,
    format_attr_name,
    parse_schema,
)
from . import implication

__all__ = [
    "CompositionParams",
    "Derivation",
    "DerivationStep",
    "RefinementParams",
    "RuleError",
    "RULE_COMPOSITION",
    "RULE_NARY",
    "RULE_REFINEMENT",
    "RULE_UPWARD",
    "UpwardClosureParams",
    "apply_composition",
    "apply_refinement",
    "apply_upward_closure",
    "check_derivation",
    "derive_keyset",
    "first_invalid_step",
    "format_derivation",
    "parse_derivation",
    "simulate_nary",
]

RULE_UPWARD = "UpwardClosure"
RULE_REFINEMENT = "Refinement"
RULE_COMPOSITION = "Composition"
RULE_NARY = "NaryComposition"

Ref = tuple[str, int]


class RuleError(ValueError):
    """A rule application that breaks its side conditions."""


def apply_upward_closure(ks: KeySet, extra: KeySet) -> KeySet:
    """Add the keys of ``extra`` to ``ks``."""
    return KeySet(ks.keys | extra.keys)


def apply_refinement(ks: KeySet, target: AttrSet, left: AttrSet, right: AttrSet) -> KeySet:
    """Replace ``target`` by two non-empty parts whose union is ``target``.

    The parts may overlap; either may equal the target itself.
    """
    if target not in ks.keys:
        raise RuleError("refinement target is not a key of the key set")
    if not left or not right:
        raise RuleError("refinement parts must be non-empty")
    if left | right != target:
        raise RuleError("refinement parts must union to the target")
    return KeySet((ks.keys - {target}) | {left, right})


def _combo_text(combo: tuple[AttrSet, ...]) -> str:
    return "|".join("{" + ",".join(str(a) for a in sorted(k)) + "}" for k in combo)


def apply_composition(
    family: Sequence[KeySet], choice: Mapping[tuple[AttrSet, ...], AttrSet]
) -> KeySet:
    """Composition over n >= 1 premises.

    A key tuple in ``choice`` draws one key from each of the first k
    premises, 1 <= k <= n, and its entry stands for every full key tuple
    it begins. No entry may extend another, and the entries must begin
    every full tuple: counted as the product of the remaining premises'
    sizes, they sum to the product of all sizes. For n = 1 the side
    conditions force every chosen set to equal its key, so the result is
    the premise itself. The test that no entry extends another walks each
    entry once, so it is linear in the entries' total length.
    """
    family = tuple(family)
    if not family:
        raise RuleError("composition needs at least one premise")
    # tails[k]: the number of full key tuples that k keys begin
    tails = [1]
    for ks in reversed(family):
        tails.append(tails[-1] * len(ks))
    tails.reverse()
    # a trie of the entries' key tuples, ``end`` marking where an entry
    # ends: each entry is walked once to build it and once to test its
    # prefixes
    trie: dict = {}
    end = object()
    for combo in choice:
        node = trie
        for x in combo:
            node = node.setdefault(x, {})
        node[end] = None
    counted = 0
    out: set[AttrSet] = set()
    for combo, chosen in choice.items():
        if not 0 < len(combo) <= len(family) or any(x not in ks.keys for x, ks in zip(combo, family)):
            raise RuleError(f"key tuple {_combo_text(combo)} is not drawn from the premises")
        node = trie
        for x in combo[:-1]:
            node = node[x]
            if end in node:
                raise RuleError(f"entry for key tuple {_combo_text(combo)} extends another entry")
        counted += tails[len(combo)]
        chosen = frozenset(chosen)
        union = frozenset().union(*combo)
        if not chosen <= union:
            raise RuleError(
                f"chosen set escapes the key union for key tuple {_combo_text(combo)}"
            )
        if not any(x <= chosen for x in combo):
            raise RuleError(
                f"no component key is contained in the chosen set for {_combo_text(combo)}"
            )
        out.add(chosen)
    if counted != tails[0]:
        raise RuleError(f"choice has no entry for key tuples: its entries begin {counted} of {tails[0]}")
    return KeySet(frozenset(out))


# --------------------------------------------------------------------------
# Derivation objects.


@dataclass(frozen=True)
class UpwardClosureParams:
    extra: KeySet


@dataclass(frozen=True)
class RefinementParams:
    target: AttrSet
    left: AttrSet
    right: AttrSet


@dataclass(frozen=True)
class CompositionParams:
    """Choice entries ((K1, ..., Kk), Z), k <= n, each standing for every
    full key tuple it begins; :func:`derive_keyset` lists them as the
    search records them, in order of their key indices.
    :func:`check_derivation` rejects a key tuple that is listed twice,
    which :meth:`as_mapping` would collapse."""

    entries: tuple[tuple[tuple[AttrSet, ...], AttrSet], ...]

    def as_mapping(self) -> dict[tuple[AttrSet, ...], AttrSet]:
        return dict(self.entries)


StepParams = UpwardClosureParams | RefinementParams | CompositionParams


@dataclass(frozen=True)
class DerivationStep:
    rule: str
    refs: tuple[Ref, ...]
    params: StepParams
    conclusion: KeySet

    def __post_init__(self) -> None:
        object.__setattr__(self, "refs", tuple((str(k), int(i)) for k, i in self.refs))


@dataclass(frozen=True)
class Derivation:
    premises: KeySetFamily
    steps: tuple[DerivationStep, ...]
    conclusion: KeySet

    def __post_init__(self) -> None:
        object.__setattr__(self, "premises", tuple(self.premises))
        object.__setattr__(self, "steps", tuple(self.steps))


def _resolve(d: Derivation, derived: list[KeySet], ref: Ref, upto: int) -> KeySet:
    kind, idx = ref
    if kind == "p":
        if not 0 <= idx < len(d.premises):
            raise RuleError(f"premise reference p{idx} out of range")
        return d.premises[idx]
    if kind == "s":
        if not 0 <= idx < upto:
            raise RuleError(f"step reference s{idx} is not an earlier step")
        return derived[idx]
    raise RuleError(f"unknown reference kind {kind!r}")


def _apply_step(rule: str, inputs: list[KeySet], params: StepParams) -> KeySet:
    if rule == RULE_UPWARD:
        if len(inputs) != 1 or not isinstance(params, UpwardClosureParams):
            raise RuleError("upward closure takes one input and a key-set parameter")
        return apply_upward_closure(inputs[0], params.extra)
    if rule == RULE_REFINEMENT:
        if len(inputs) != 1 or not isinstance(params, RefinementParams):
            raise RuleError("refinement takes one input and a target/left/right parameter")
        return apply_refinement(inputs[0], params.target, params.left, params.right)
    if rule == RULE_COMPOSITION:
        if len(inputs) != 2 or not isinstance(params, CompositionParams):
            raise RuleError("composition takes exactly two inputs and a choice table")
    elif rule == RULE_NARY:
        if not inputs or not isinstance(params, CompositionParams):
            raise RuleError("n-ary composition takes n >= 1 inputs and a choice table")
    else:
        raise RuleError(f"unknown rule {rule!r}")
    choice = params.as_mapping()
    if len(choice) != len(params.entries):
        raise RuleError("choice table lists a key tuple twice")
    return apply_composition(inputs, choice)


def first_invalid_step(d: Derivation) -> int | None:
    """Index of the first failing step, ``len(steps)`` when only the final
    conclusion is unsupported, ``None`` when the derivation is valid."""
    derived: list[KeySet] = []
    for i, step in enumerate(d.steps):
        try:
            inputs = [_resolve(d, derived, ref, i) for ref in step.refs]
            result = _apply_step(step.rule, inputs, step.params)
        except ValueError:
            return i
        if result != step.conclusion:
            return i
        derived.append(result)
    if any(p == d.conclusion for p in d.premises):
        return None
    if d.steps and d.steps[-1].conclusion == d.conclusion:
        return None
    return len(d.steps)


def check_derivation(d: Derivation) -> bool:
    """True iff every step re-derives exactly and the conclusion is the
    last step's result or one of the premises."""
    return first_invalid_step(d) is None


def _closed(
    premises: KeySetFamily, steps: list[DerivationStep], current: KeySet, current_ref: Ref, goal: KeySet
) -> Derivation:
    """``steps`` as a derivation of ``goal``, ended by an Upward closure of
    ``current`` unless it is ``goal`` already."""
    if current != goal:
        closed = apply_upward_closure(current, goal)
        steps.append(DerivationStep(RULE_UPWARD, (current_ref,), UpwardClosureParams(goal), closed))
    return Derivation(premises, tuple(steps), goal)


# --------------------------------------------------------------------------
# Simulating n-ary Composition with binary steps.


def simulate_nary(
    family: Sequence[KeySet], choice: Mapping[tuple[AttrSet, ...], AttrSet]
) -> Derivation:
    """Replay an n-ary Composition using binary Composition steps only,
    plus at most one final Upward closure.

    The conclusion is ``T = apply_composition(family, choice)``. Two
    premises take one binary composition under the table itself. Otherwise
    the current key set starts as premise 0 and is composed with
    premises 1, ..., n-1, 0, 1, ... in turn, at least n - 1 times, until
    every current key is in T; a single premise is T itself, so it takes
    none. The choice reads only T: for a current key W and a premise key
    y, z(W, y) is the first Z of T in canonical order with
    y <= Z <= W | y. W stays, as one entry (W,) -> W, if it is in T
    or if some premise key y inside W has no z(W, y); else each pair
    (W, y) goes to z(W, y), or to W | y when there is none.

    This ends. After the first pass every key outside T contains a key of
    every premise. For such a W, some premise has every key inside W
    under a Z of T inside W: otherwise the tuple of the failing keys
    would have an entry whose chosen set lies inside W and contains one
    of them. So each round of n compositions removes every non-target key
    with the fewest premise keys inside it, and new keys only gain premise
    keys, since a pair takes the union W | y only when y is not inside W
    and no key of T lies between y and W | y. Past the bound of (n - 1) + n * |distinct premise keys|
    compositions this raises :class:`RuleError`, and a step of more than
    :data:`~keysets.implication.CHOICE_CAP` key pairs raises
    :class:`~keysets.core.ResourceLimit`.

    On a table that :func:`derive_keyset` reads off a
    :func:`~keysets.implication.from_3sat` instance, every chosen set
    holds its entry's last key, since the search prunes a prefix as soon
    as a key of phi inside its union holds one of its one-literal keys.
    So each prefix's union maps into T as its entry closes, and each open
    prefix, which no key of T fits, extends: the replay takes n - 1
    compositions, and no key set has more keys than the table has entries.
    """
    family = tuple(family)
    n = len(family)
    target = apply_composition(family, choice)
    steps: list[DerivationStep] = []

    def add_composition(
        left_ref: Ref, left: KeySet, right_ref: Ref, right: KeySet, mapping: dict
    ) -> tuple[KeySet, Ref]:
        result = apply_composition((left, right), mapping)
        params = CompositionParams(tuple(mapping.items()))
        steps.append(DerivationStep(RULE_COMPOSITION, (left_ref, right_ref), params, result))
        return result, ("s", len(steps) - 1)

    if n == 2:
        result, _ = add_composition(("p", 0), family[0], ("p", 1), family[1], dict(choice))
        return Derivation(family, tuple(steps), result)

    bound = (n - 1) + n * len(set().union(*(ks.keys for ks in family)))
    current, current_ref = family[0], ("p", 0)
    composed = 0
    while composed < n - 1 or not current.keys <= target.keys:
        if composed == bound:
            raise RuleError(f"simulation passed its bound of {bound} binary compositions")
        composed += 1
        premise = family[composed % n]
        pairs = len(current.keys) * len(premise.keys)
        if pairs > implication.CHOICE_CAP:
            raise ResourceLimit("binary composition pairs", pairs, implication.CHOICE_CAP)
        mapping = {}
        for w in current.sorted_keys:
            into = {y: next((z for z in target if y <= z <= w | y), None) for y in premise}
            if w in target.keys or any(into[y] is None for y in premise.keys if y <= w):
                mapping[(w,)] = w
            else:
                mapping.update(((w, y), z or w | y) for y, z in into.items())
        current, current_ref = add_composition(current_ref, current, ("p", composed % n), premise, mapping)

    return _closed(family, steps, current, current_ref, target)


# --------------------------------------------------------------------------
# Deriving an implied key set.


def derive_keyset(premises: Sequence[KeySet], goal: KeySet) -> Derivation:
    """Derivation of an implied ``goal``: one n-ary Composition, then
    Refinements, then at most one Upward closure.

    The composition's choice table is the implication search's record:
    one entry per key it skips and per prefix it prunes, in order. A
    premise whose every key is skipped composes alone. An entry chooses
    the first goal key inside its key union that holds one of its keys;
    when there is none, the union of the goal keys inside its key union,
    which refinements then split back into those keys. Raises
    :class:`RuleError` when ``goal`` is not implied, and
    :class:`~keysets.core.ResourceLimit` where
    :func:`~keysets.implication.implies` does.
    """
    premises = tuple(premises)
    if not premises:
        raise RuleError("an empty premise family implies no key set")
    leaves: list[tuple[int, ...]] = []
    if implication._search(premises, goal, leaves)[0] is not None:
        raise RuleError("goal is not implied by the premises")
    refs = range(len(premises))
    if not leaves:  # the search stopped at a premise whose every key is skipped
        refs = [next(i for i, p in enumerate(premises) if implication._search((p,), goal)[0] is None)]
        leaves = [(i,) for i in range(len(premises[refs[0]]))]
    family = [premises[i] for i in refs]
    goal_keys = goal.sorted_keys
    entries = []
    parts_for: dict[AttrSet, tuple[AttrSet, ...]] = {}
    for leaf in leaves:
        combo = tuple(family[k].sorted_keys[i] for k, i in enumerate(leaf))
        union = frozenset().union(*combo)
        zs = tuple(y for y in goal_keys if y <= union)
        chosen = next((y for y in zs if any(x <= y for x in combo)), None)
        if chosen is None:
            chosen = frozenset().union(*zs)
            parts_for[chosen] = zs
        entries.append((combo, chosen))

    composed = apply_composition(family, dict(entries))
    steps: list[DerivationStep] = [
        DerivationStep(
            RULE_NARY, tuple(("p", i) for i in refs), CompositionParams(tuple(entries)), composed
        )
    ]
    current = composed
    current_ref: Ref = ("s", 0)
    for union_set in composed.sorted_keys:
        parts = parts_for.get(union_set)
        if parts is None or union_set not in current.keys:
            continue  # a goal key, or already split apart while refining an earlier union
        remaining = union_set
        for idx in range(len(parts) - 1):
            left = parts[idx]
            right = frozenset().union(*parts[idx + 1 :])
            current = apply_refinement(current, remaining, left, right)
            steps.append(
                DerivationStep(
                    RULE_REFINEMENT,
                    (current_ref,),
                    RefinementParams(remaining, left, right),
                    current,
                )
            )
            current_ref = ("s", len(steps) - 1)
            remaining = right
    return _closed(premises, steps, current, current_ref, goal)


# --------------------------------------------------------------------------
# Text form. One step per line:
#
#   <idx>: <rule> from <refs> with <params> => <keyset>
#
# wrapped by a schema line, numbered premise lines and a conclusion line.
# '#' lines are comments. A Composition entry lists the keys of the first
# k premises, k <= n, and stands for every key tuple it begins.


def format_derivation(d: Derivation, schema: Schema) -> str:
    """Canonical text form; :func:`parse_derivation` inverts it exactly."""
    # each name is escaped, and each distinct attribute set written, once
    names = [format_attr_name(name) for name in schema.attributes]
    texts: dict[AttrSet, str] = {}

    def attr_set(attrs: AttrSet) -> str:
        text = texts.get(attrs)
        if text is None:
            text = texts[attrs] = "{" + ",".join([names[a] for a in sorted(attrs)]) + "}"
        return text

    def keyset(ks: KeySet) -> str:
        return "{" + ",".join(map(attr_set, ks.sorted_keys)) + "}"

    lines = ["schema: " + ",".join(names)]
    for i, premise in enumerate(d.premises):
        lines.append(f"premise {i}: {keyset(premise)}")
    for i, step in enumerate(d.steps):
        params = step.params
        if isinstance(params, UpwardClosureParams):
            params_text = keyset(params.extra)
        elif isinstance(params, RefinementParams):
            params_text = (
                f"{attr_set(params.target)}->{attr_set(params.left)}|{attr_set(params.right)}"
            )
        else:
            params_text = "; ".join(
                "|".join(map(attr_set, combo)) + "->" + attr_set(chosen)
                for combo, chosen in params.entries
            )
        refs = ",".join(f"{kind}{idx}" for kind, idx in step.refs)
        lines.append(f"{i}: {step.rule} from {refs} with {params_text} => {keyset(step.conclusion)}")
    lines.append(f"conclusion: {keyset(d.conclusion)}")
    return "\n".join(lines) + "\n"


# A separator match, or a quoted name to skip; an unterminated quote runs to
# the end of the text.
_SEPARATORS = {
    sep: re.compile(r'"' + _QUOTED_BODY + r'"?|(' + re.escape(sep) + ")", re.DOTALL)
    for sep in ("->", "|", ";", " with ", " => ")
}


def _split_quoted(text: str, sep: str) -> list[str]:
    """Split on ``sep`` occurrences outside double-quoted names."""
    if '"' not in text:
        return text.split(sep)
    out: list[str] = []
    start = 0
    for m in _SEPARATORS[sep].finditer(text):
        if m.group(1):
            out.append(text[start : m.start()])
            start = m.end()
    out.append(text[start:])
    return out


# Numbers are capped at 18 digits, past any real index, because int()
# refuses strings of more than 4300 digits with a bare ValueError.
_STEP_RE = re.compile(r"^(\d{1,18})\s*:\s*(\w+)\s+from\s+(.*)$")
_REF_RE = re.compile(r"^([ps])(\d{1,18})$")
_PREMISE_RE = re.compile(r"^premise\s+(\d{1,18})\s*:\s*(.*)$")


def _parse_params(
    rule: str, text: str, schema: Schema, memo: dict[str, AttrSet], lineno: int
) -> StepParams:
    def attr_set(part: str) -> AttrSet:
        part = part.strip()
        attrs = memo.get(part)
        return _parse_sets(part, schema, memo, keyset=False) if attrs is None else attrs

    text = text.strip()
    if rule == RULE_UPWARD:
        return UpwardClosureParams(_parse_sets(text, schema, memo, keyset=True))
    if rule == RULE_REFINEMENT:
        halves = _split_quoted(text, "->")
        if len(halves) != 2:
            raise ParseError("refinement parameter needs one '->'", lineno)
        sides = _split_quoted(halves[1], "|")
        if len(sides) != 2:
            raise ParseError("refinement split needs one '|'", lineno)
        return RefinementParams(attr_set(halves[0]), attr_set(sides[0]), attr_set(sides[1]))
    if rule in (RULE_COMPOSITION, RULE_NARY):
        entries = []
        for part in _split_quoted(text, ";"):
            part = part.strip()
            if not part:
                continue
            halves = _split_quoted(part, "->")
            if len(halves) != 2:
                raise ParseError("choice entry needs one '->'", lineno)
            combo = tuple(map(attr_set, _split_quoted(halves[0], "|")))
            entries.append((combo, attr_set(halves[1])))
        return CompositionParams(tuple(entries))
    raise ParseError(f"unknown rule {rule!r}", lineno)


def parse_derivation(text: str) -> tuple[Derivation, Schema]:
    """Parse the text form back into a derivation and its schema."""
    schema: Schema | None = None
    premises: list[KeySet] = []
    steps: list[DerivationStep] = []
    conclusion: KeySet | None = None
    memo: dict[str, AttrSet] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if conclusion is not None:
                raise ParseError("content after the conclusion line", lineno)
            if line.startswith("schema:"):
                if schema is not None:
                    raise ParseError("duplicate schema line", lineno)
                schema = parse_schema(line[len("schema:") :].strip())
                continue
            if schema is None:
                raise ParseError("schema line must come first", lineno)
            if line.startswith("premise"):
                m = _PREMISE_RE.match(line)
                if not m or int(m.group(1)) != len(premises):
                    raise ParseError("premises must be numbered in order", lineno)
                if steps:
                    raise ParseError("premise after a step line", lineno)
                premises.append(_parse_sets(m.group(2), schema, memo, keyset=True))
                continue
            if line.startswith("conclusion:"):
                conclusion = _parse_sets(line[len("conclusion:") :].strip(), schema, memo, keyset=True)
                continue
            m = _STEP_RE.match(line)
            if not m:
                raise ParseError("unrecognized line", lineno)
            if int(m.group(1)) != len(steps):
                raise ParseError("steps must be numbered in order", lineno)
            rule = m.group(2)
            rest = m.group(3)
            with_split = _split_quoted(rest, " with ")
            if len(with_split) < 2:
                raise ParseError("step line is missing ' with '", lineno)
            refs_text = with_split[0]
            tail = " with ".join(with_split[1:])
            arrow_split = _split_quoted(tail, " => ")
            if len(arrow_split) != 2:
                raise ParseError("step line needs exactly one ' => '", lineno)
            refs = []
            for piece in refs_text.split(","):
                rm = _REF_RE.match(piece.strip())
                if not rm:
                    raise ParseError(f"bad reference {piece.strip()!r}", lineno)
                refs.append((rm.group(1), int(rm.group(2))))
            params = _parse_params(rule, arrow_split[0], schema, memo, lineno)
            step_conclusion = _parse_sets(arrow_split[1].strip(), schema, memo, keyset=True)
            steps.append(DerivationStep(rule, tuple(refs), params, step_conclusion))
        except ParseError as exc:
            # a fragment's errors carry its own position, a whole line's the line number
            raise ParseError(f"line {lineno}: {exc.message}", exc.position) from None
    if schema is None:
        raise ParseError("missing schema line", 0)
    if conclusion is None:
        raise ParseError("missing conclusion line", 0)
    return Derivation(tuple(premises), tuple(steps), conclusion), schema
