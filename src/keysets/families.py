"""Key-set workloads: the sequential family and random key sets.

The generators mirror two experiment designs. The sequential family over
attributes A1..An is X_i = {{A1..Ai},{A(i+1)},...,{An}}, walking from the
unary key set (i = 1) to the single full key (i = n). The random
generator draws one key of m distinct attributes and keeps the remaining
attributes as singletons, giving cardinality n + 1 - m.

Randomness comes from the Mersenne Twister (``random.Random``) with an
explicit seed and an explicit partial Fisher-Yates selection, so the
same seed reproduces the same workload everywhere. Generating key sets
needs no relation, so this module imports no numpy.
"""

from __future__ import annotations

import random

from .core import KeySet, Schema

__all__ = ["gen_random_keyset", "gen_sequential_keysets"]


def gen_sequential_keysets(schema: Schema) -> tuple[KeySet, ...]:
    """The full sequential family X_1..X_n over the schema."""
    n = len(schema)
    out = []
    for i in range(1, n + 1):
        keys = [frozenset(range(i))]
        keys.extend(frozenset({a}) for a in range(i, n))
        out.append(KeySet(frozenset(keys)))
    return tuple(out)


def gen_random_keyset(schema: Schema, m: int, seed: int | None = None) -> KeySet:
    """One random key of ``m`` attributes plus all other attributes as
    singletons. Attribute selection is a partial Fisher-Yates shuffle."""
    n = len(schema)
    if not 1 <= m <= n:
        raise ValueError(f"key size {m} must be between 1 and {n}")
    rng = random.Random(seed)
    idx = list(range(n))
    for j in range(m):
        k = rng.randrange(j, n)
        idx[j], idx[k] = idx[k], idx[j]
    keys = [frozenset(idx[:m])]
    keys.extend(frozenset({a}) for a in idx[m:])
    return KeySet(frozenset(keys))
