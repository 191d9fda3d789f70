"""Armstrong relation tests for the unary fragment.

The transversal goldens were derived by hand and double-checked by an
exhaustive subset-enumeration oracle, which also backs the randomized
property: the generated relation satisfies exactly the implied unary
key sets.
"""

import itertools
import random

import pytest

from conftest import random_family
from keysets import (
    AntiKeyReport,
    Hypergraph,
    KeySet,
    Relation,
    Row,
    Schema,
    anti_keys,
    generate_armstrong,
    implies_unary,
    is_armstrong_unary,
    minimal_transversals,
    satisfies,
    size_bounds,
)
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
    rng = random.Random(20240820)
    for _ in range(60):
        width = rng.randint(2, 6)
        schema = Schema(tuple(f"c{i}" for i in range(width)))
        edges = frozenset(
            frozenset(rng.sample(range(width), rng.randint(1, width)))
            for _ in range(rng.randint(1, 4))
        )
        h = Hypergraph(schema, edges)
        assert minimal_transversals(h) == transversals_oracle(edges, width)


def test_hypergraph_validation(ward_schema):
    with pytest.raises(ValueError, match="non-empty"):
        Hypergraph(ward_schema, frozenset({frozenset()}))
    with pytest.raises(ValueError, match="outside the schema"):
        Hypergraph(ward_schema, frozenset({frozenset({7})}))


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


def test_is_armstrong_cap():
    schema = Schema(tuple(f"c{i}" for i in range(21)))
    rel = Relation.from_values(schema, [tuple("0" for _ in range(21))])
    with pytest.raises(ValueError, match="cap is 20"):
        is_armstrong_unary(rel, (KeySet.of({0}),))


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
