"""Armstrong relation tests for the unary fragment.

The transversal goldens were derived by hand and double-checked by an
exhaustive subset-enumeration oracle, which also backs the randomized
property: the generated relation satisfies exactly the implied unary
key sets.
"""

import itertools
import random
import time

import pytest

from conftest import berge_transversals, random_family, random_keys_family
from keysets import (
    AntiKeyReport,
    Hypergraph,
    ImplicationInstance,
    KeySet,
    Relation,
    ResourceLimit,
    Row,
    Schema,
    anti_keys,
    armstrong_chain,
    generate_armstrong,
    implies,
    implies_unary,
    is_armstrong_unary,
    minimal_transversals,
    satisfies,
    size_bounds,
)
from keysets import armstrong, implication
from keysets.core import attr_sort_key


def transversals_oracle(edges, width) -> tuple[frozenset, ...]:
    """Minimal hitting sets by brute force over all subsets."""
    hitting = [
        frozenset(s)
        for size in range(width + 1)
        for s in itertools.combinations(range(width), size)
        if all(frozenset(s) & e for e in edges)
    ]
    minimal = [s for s in hitting if not any(t < s for t in hitting)]
    return tuple(sorted(minimal, key=attr_sort_key))


# --------------------------------------------------------------------------
# Minimal transversals.


def test_transversals_ward_edges(ward_schema):
    h = Hypergraph(ward_schema, frozenset({frozenset({0, 3, 4}), frozenset({1, 3, 4})}))
    assert minimal_transversals(h) == (frozenset({0, 1}), frozenset({3}), frozenset({4}))


def test_transversals_single_edge():
    h = Hypergraph(Schema.of("a", "b"), frozenset({frozenset({0})}))
    assert minimal_transversals(h) == (frozenset({0}),)


def test_transversals_disjoint_edges(abcd_schema):
    h = Hypergraph(abcd_schema, frozenset({frozenset({0, 1}), frozenset({2, 3})}))
    assert minimal_transversals(h) == (
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({1, 2}),
        frozenset({1, 3}),
    )


def test_transversals_no_edges(abcd_schema):
    assert minimal_transversals(Hypergraph(abcd_schema, frozenset())) == (frozenset(),)


def test_transversals_match_oracle_on_random_hypergraphs():
    # up to 10 edges over up to 9 vertices, so nested and overlapping
    # edges meet the hitting sets each new edge is tested against
    rng = random.Random(20240820)
    for _ in range(200):
        width = rng.randint(2, 9)
        schema = Schema(tuple(f"c{i}" for i in range(width)))
        edges = frozenset(
            frozenset(rng.sample(range(width), rng.randint(1, width)))
            for _ in range(rng.randint(1, 10))
        )
        h = Hypergraph(schema, edges)
        assert minimal_transversals(h) == transversals_oracle(edges, width)


def test_transversals_match_berge_on_wide_random_hypergraphs():
    # vertices up to 200, so the masks span several machine words; edges
    # come from a small pool so they overlap, and the product of their
    # sizes, which bounds the answer, stays under the cap
    rng = random.Random(20240823)
    for _ in range(300):
        width = rng.randint(2, 200)
        pool = rng.sample(range(width), rng.randint(1, min(width, 16)))
        edges: set[frozenset[int]] = set()
        bound = 1
        for _ in range(rng.randint(1, 14)):
            edge = frozenset(rng.sample(pool, rng.randint(1, min(len(pool), 5))))
            if bound * len(edge) > armstrong.TRANSVERSAL_CAP:
                break
            edges.add(edge)
            bound *= len(edge)
        h = Hypergraph(Schema(tuple(f"c{i}" for i in range(width))), frozenset(edges))
        assert minimal_transversals(h) == berge_transversals(edges)


def test_hypergraph_validation(ward_schema):
    with pytest.raises(ValueError, match="non-empty"):
        Hypergraph(ward_schema, frozenset({frozenset()}))
    with pytest.raises(ValueError, match="outside the schema"):
        Hypergraph(ward_schema, frozenset({frozenset({7})}))
    with pytest.raises(ValueError, match="outside the schema"):
        Hypergraph(Schema.of("a", "b"), frozenset({frozenset({-1}), frozenset({0})}))
    with pytest.raises(ValueError, match="outside the schema"):
        Hypergraph(Schema.of("a", "b"), frozenset({frozenset({"a"})}))


# --------------------------------------------------------------------------
# Anti-keys.


def test_anti_keys_ward(ward_schema, x1, x2):
    report = anti_keys((x1, x2), ward_schema)
    assert report == AntiKeyReport(
        transversals=(frozenset({0, 1}), frozenset({3}), frozenset({4})),
        anti_keys=(frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4}), frozenset({2, 3, 4})),
    )


def test_anti_keys_disjoint_family(abcd_schema, sigma_abcd):
    report = anti_keys(sigma_abcd, abcd_schema)
    assert report.anti_keys == (
        frozenset({0, 2}),
        frozenset({0, 3}),
        frozenset({1, 2}),
        frozenset({1, 3}),
    )


def test_anti_key_can_be_empty():
    schema = Schema.of("a")
    report = anti_keys((KeySet.of({0}),), schema)
    assert report.anti_keys == (frozenset(),)


def test_anti_keys_errors(ward_schema):
    with pytest.raises(ValueError, match="non-empty family"):
        anti_keys((), ward_schema)
    with pytest.raises(ValueError, match="outside the schema"):
        anti_keys((KeySet.of({9}),), ward_schema)


def test_anti_keys_are_exactly_the_maximal_safe_sets():
    """An anti-key contains no member union but every proper extension
    does; and every such set is listed."""
    rng = random.Random(20240821)
    for _ in range(40):
        width = rng.randint(2, 5)
        schema = Schema(tuple(f"c{i}" for i in range(width)))
        sigma = random_family(rng, width)
        unions = [ks.attributes for ks in sigma]
        report = anti_keys(sigma, schema)
        expected = set()
        for size in range(width + 1):
            for combo in itertools.combinations(range(width), size):
                g = frozenset(combo)
                if any(u <= g for u in unions):
                    continue
                if all(any(u <= g | {a} for u in unions) for a in range(width) if a not in g):
                    expected.add(g)
        assert set(report.anti_keys) == expected


# --------------------------------------------------------------------------
# Generation.


def test_generate_armstrong_ward(ward_schema, x1, x2, phi_prime):
    rel = generate_armstrong((x1, x2), ward_schema)
    assert len(rel) == 4
    assert all(row.is_total(ward_schema.all_attrs()) for row in rel.rows)
    assert rel.rows[0].values == ("vroom_0", "vname_0", "vaddress_0", "vinjury_0", "vtime_0")
    # consecutive rows agree exactly on the anti-keys, in order
    report = anti_keys((x1, x2), ward_schema)
    assert armstrong_chain(report, ward_schema).rows == rel.rows  # the chain alone, from a report in hand
    for i, anti in enumerate(report.anti_keys):
        prev, cur = rel.rows[i].values, rel.rows[i + 1].values
        agree = frozenset(c for c in range(5) if prev[c] == cur[c])
        assert agree == anti
    assert satisfies(rel, x1)
    assert satisfies(rel, x2)
    assert not satisfies(rel, phi_prime)
    assert is_armstrong_unary(rel, (x1, x2))


def test_generate_armstrong_single_attribute():
    schema = Schema.of("a")
    rel = generate_armstrong((KeySet.of({0}),), schema)
    assert len(rel) == 2
    assert rel.rows[0].values != rel.rows[1].values
    assert is_armstrong_unary(rel, (KeySet.of({0}),))


def test_is_armstrong_detects_missing_agreement(ward_schema, x1, x2):
    rel = generate_armstrong((x1, x2), ward_schema)
    kept = rel.rows[:-1]
    truncated = Relation.from_values(rel.schema, [r.values for r in kept], row_ids=[r.row_id for r in kept])
    assert not is_armstrong_unary(truncated, (x1, x2))


def test_is_armstrong_detects_union_agreement(ward_schema, x1, x2):
    rel = generate_armstrong((x1, x2), ward_schema)
    rows = rel.rows + (Row(99, rel.rows[0].values),)
    doubled = Relation.from_values(rel.schema, [r.values for r in rows], row_ids=[r.row_id for r in rows])
    assert not is_armstrong_unary(doubled, (x1, x2))


def test_is_armstrong_reads_missing_values_as_no_difference():
    # a missing value separates nothing, so the pair violates {{a}}, which
    # sigma implies: not Armstrong, though the rows never agree on a
    rel = Relation.from_values(Schema.of("a", "b"), [(None, "x"), ("1", "x")])
    sigma = (KeySet.of({0}),)
    assert not satisfies(rel, sigma[0])
    assert not is_armstrong_unary(rel, sigma)
    # a third row makes {a} a difference set, and the pair above still
    # violates {{a}}
    third = Relation.from_values(rel.schema, [(None, "x"), ("1", "x"), ("2", "y")])
    assert not is_armstrong_unary(third, sigma)
    # with the pair separated on a the two rows are Armstrong for {{a}}
    assert is_armstrong_unary(Relation.from_values(rel.schema, [("0", None), ("1", "x")]), sigma)


def test_is_armstrong_below_two_rows():
    # no pair: every unary key set holds, so only a family implying them all
    # has an Armstrong relation of one row
    schema = Schema.of("a", "b")
    one = Relation.from_values(schema, [("0", None)])
    assert is_armstrong_unary(one, (KeySet.of({0}), KeySet.of({1})))
    assert not is_armstrong_unary(one, (KeySet.of({0}),))
    assert not is_armstrong_unary(Relation.from_values(schema, []), (KeySet.of({0, 1}),))


def _blank(rng: random.Random, rel: Relation, rate: float) -> Relation:
    rows = [tuple(None if rng.random() < rate else v for v in r.values) for r in rel.rows]
    return Relation.from_values(rel.schema, rows)


def test_is_armstrong_matches_the_definition_with_nulls():
    """is_armstrong_unary(rel, sigma) iff, for every non-empty Y, rel
    satisfies {{a} : a in Y} exactly when sigma implies it; on generated
    Armstrong relations with cells blanked and on random relations with
    missing values."""
    rng = random.Random(20261019)
    outcomes = []
    for case in range(400):
        width = rng.randint(1, 4)
        schema = Schema(tuple(f"c{i}" for i in range(width)))
        sigma = random_family(rng, width)
        if case % 2:
            rel = _blank(rng, generate_armstrong(sigma, schema), rng.choice((0.0, 0.1, 0.25)))
        else:
            rows = [
                tuple(None if rng.random() < 0.25 else str(rng.randrange(3)) for _ in range(width))
                for _ in range(rng.randint(0, 6))
            ]
            rel = Relation.from_values(schema, rows)
        expected = all(
            satisfies(rel, phi) == implies(ImplicationInstance(schema, sigma, phi)).implied
            for size in range(1, width + 1)
            for phi in (KeySet.of(*({a} for a in y)) for y in itertools.combinations(range(width), size))
        )
        assert is_armstrong_unary(rel, sigma) == expected, (rel.rows, sigma)
        outcomes.append(expected)
    assert 50 < sum(outcomes) < 350

def disjoint_pairs(n: int) -> tuple[Schema, tuple[KeySet, ...]]:
    """n members {{c2i},{c2i+1}}: 2^n minimal transversals of their unions."""
    schema = Schema(tuple(f"c{i}" for i in range(2 * n)))
    return schema, tuple(KeySet.of({2 * i}, {2 * i + 1}) for i in range(n))


def test_transversal_cap(monkeypatch):
    # n disjoint pairs have 2^n minimal transversals: 32 fit a cap of 32,
    # and six pairs raise on the 33rd
    monkeypatch.setattr(armstrong, "TRANSVERSAL_CAP", 32)
    schema, sigma = disjoint_pairs(5)
    assert len(anti_keys(sigma, schema).transversals) == 32
    assert is_armstrong_unary(generate_armstrong(sigma, schema), sigma)
    schema, sigma = disjoint_pairs(6)
    # a relation on a wide schema is checked without a schema-size cap
    rel = Relation.from_values(schema, [tuple("0" for _ in range(12))])
    calls = (
        lambda: anti_keys(sigma, schema),
        lambda: generate_armstrong(sigma, schema),
        lambda: is_armstrong_unary(rel, sigma),
    )
    for call in calls:
        with pytest.raises(ResourceLimit) as err:
            call()
        assert (err.value.limit, err.value.size, err.value.cap) == ("minimal transversal family", 33, 32)


def test_transversal_cap_counts_the_answer(monkeypatch):
    # Berge's loop takes {c0,c1,c2} first and holds three sets after it;
    # the answer has two
    monkeypatch.setattr(armstrong, "TRANSVERSAL_CAP", 2)
    schema = Schema.of("c0", "c1", "c2")
    report = anti_keys((KeySet.of({0}, {1}, {2}), KeySet.of({0}, {2})), schema)
    assert report.transversals == (frozenset({0}), frozenset({2}))


def test_transversal_search_node_cap(monkeypatch):
    # five disjoint pairs: the walk's nodes are 1 + 2 + 4 + ... + 32
    schema, sigma = disjoint_pairs(5)
    monkeypatch.setattr(implication, "CHOICE_CAP", 63)
    assert len(anti_keys(sigma, schema).transversals) == 32
    monkeypatch.setattr(implication, "CHOICE_CAP", 62)
    with pytest.raises(ResourceLimit) as err:
        anti_keys(sigma, schema)
    assert (err.value.limit, err.value.size, err.value.cap) == ("transversal search nodes", 63, 62)


def test_wide_schema_hits_the_cap_not_the_recursion_limit():
    # answers of 1,000 vertices each: a recursive walk would need depth 1,000
    schema, sigma = disjoint_pairs(1000)
    started = time.perf_counter()
    with pytest.raises(ResourceLimit) as err:
        anti_keys(sigma, schema)
    assert time.perf_counter() - started < 2
    assert err.value.size == armstrong.TRANSVERSAL_CAP + 1


def test_random_keys_family_fits_the_cap():
    schema, sigma = random_keys_family()
    report = anti_keys(sigma, schema)
    assert len(report.transversals) == 4630 < armstrong.TRANSVERSAL_CAP
    assert report.transversals == tuple(sorted(report.transversals, key=attr_sort_key))
    unions = [ks.attributes for ks in sigma]
    assert report.transversals == berge_transversals(unions)
    for t in report.transversals[::97]:
        assert all(t & u for u in unions)
        assert all(any(not (t - {v}) & u for u in unions) for v in t)


def test_armstrong_contract_on_random_families():
    """The generated relation satisfies a unary key set iff the family
    implies it, for every non-empty unary key set over the schema."""
    rng = random.Random(20240822)
    for _ in range(30):
        width = rng.randint(2, 5)
        schema = Schema(tuple(f"c{i}" for i in range(width)))
        sigma = random_family(rng, width)
        rel = generate_armstrong(sigma, schema)
        assert is_armstrong_unary(rel, sigma)
        report = anti_keys(sigma, schema)
        assert len(rel) == len(report.anti_keys) + 1
        assert len(rel) <= size_bounds(len(report.anti_keys))[1]
        for size in range(1, width + 1):
            for combo in itertools.combinations(range(width), size):
                phi = KeySet.of(*({a} for a in combo))
                assert satisfies(rel, phi) == implies_unary(sigma, phi)


# --------------------------------------------------------------------------
# Size bounds.


@pytest.mark.parametrize("a,expected", [(1, (2, 2)), (2, (3, 3)), (3, (3, 4)), (6, (4, 7)), (7, (5, 8))])
def test_size_bounds_goldens(a, expected):
    assert size_bounds(a) == expected


def test_size_bounds_rejects_zero():
    with pytest.raises(ValueError, match="at least one"):
        size_bounds(0)


def test_size_bounds_boundary():
    for a in range(1, 101):
        lower, upper = size_bounds(a)
        assert lower * (lower - 1) // 2 >= a
        assert (lower - 1) * (lower - 2) // 2 < a
        assert upper == a + 1
        assert lower <= upper
