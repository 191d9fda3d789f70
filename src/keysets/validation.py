"""Key-set validation over relations with missing values.

Two independent routes compute which rows take part in a violation:

* :func:`violating_tuples_naive` checks every pair of rows against every
  key, straight from the definition. Quadratic in the number of rows; the
  pairwise comparisons are vectorized with numpy so large inputs stay
  usable, but the output is exactly the definitional all-pairs result.

* :func:`violating_blocks` refines a block partition one round at a
  time, each round on a set of columns. Rows that are total on the
  round's columns are grouped by their projection; incomplete rows join
  every class of their block, because a missing value can match anything.
  Each round is one pass of numpy sorting and grouping over the
  relation's integer codes (:attr:`Relation.codes`), so the run time is
  linear in rows times total key size, up to the sort's log factor, for
  bounded block overlap. Each column is gathered from its contiguous
  column of the column-major code matrix, or read in place on the first
  round. Every state is a list of distinct (block, row) pairs, and every
  sort is of distinct pairs: it packs each pair into one int64, the
  second value below the first, runs a plain ``np.sort``, about three
  times faster than ``np.argsort``, and reads the sorted pairs back from
  the high and the low bits, so no permutation is gathered after it. The
  class key is re-densified whenever the next column would leave too
  little room below it for a row position. The one fallback, an
  ``np.lexsort``, runs only when a pair still does not pack, which on a
  total relation takes more than 2**21 rows and columns of as many
  values (:func:`_sort_pairs`). Each round sorts its (class key, row)
  pairs once and reads the new blocks off the sorted keys: a member
  stays when it equals a neighbour, which drops the singleton classes,
  and the changes of value among the members kept number the blocks.
  :func:`block_trace` and :func:`satisfies` run the same refinement loop;
  ``satisfies`` stops at the first empty state, and answers ``False`` at
  the first state holding a wild row, one that misses a cell of every
  round still to come (:func:`_wild`). Every block holds two or more
  rows that no round so far separates, and a key separates two rows
  only when both are total on it, so the wild row and any other member
  of its block form a violating pair. A state holding more than
  :data:`BLOCK_ROW_CAP` row copies raises
  :class:`~keysets.core.ResourceLimit` before it is built, so
  ``satisfies`` raises it only when it must build such a state before
  it finds a witness.

  The rounds set the work, not the answer (:func:`_plan`). On rows that
  are total on every attribute of a key set, two rows are unseparated
  iff they agree on the union of its keys: there a key set is one key.
  So every complete key, one whose columns miss no cell
  (:attr:`Relation.null_counts`), is dissolved into its columns, and
  those are refined first, most distinct first, grouped greedily into
  rounds that each fit one packed sort. Such rounds only partition
  blocks by projection and copy no row, and partitions compose into the
  partition by the union in any grouping and order. The keys with
  missing cells follow, one round each. Each incomplete row is copied
  into every class of its block, so they go in ascending order of a
  bound on their copies, missing cells times classes, then in canonical
  order. The answer does not depend on the plan: a maximal set of rows
  that no key separates stays inside one block in any plan, since its
  total members agree on each key and so on each column of a complete
  key, and its incomplete members join every class; and every block is
  such a set or inside one. So the final state's maximal blocks, and
  whether it is empty, are the same in every plan. :func:`block_trace` refines key by
  key, in canonical key order.

  The final state then keeps only its maximal blocks. When no row is in
  two blocks every block is maximal and the filter returns at once.
  Otherwise each block is compared only with the larger blocks that hold
  its rarest row, the member in the fewest blocks, and whose row
  signature covers its own. Every such pair is checked in one pass that
  looks up all of the block's members in the larger block, so the
  filter's cost follows the overlap of the blocks rather than the square
  of their number.

Both routes read ``Relation.codes``, the relation's storage, which
:meth:`Relation.from_values` (and so ``load_csv``) builds at ingest;
row positions map to ids through ``Relation.row_ids``.

The blocks come unordered; their union always equals the naive violating set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import AttrSet, KeySet, ResourceLimit, attr_sort_key
from .relation import Relation

__all__ = [
    "BLOCK_ROW_CAP",
    "BlockSet",
    "block_trace",
    "satisfies",
    "violating_blocks",
    "violating_tuples_naive",
]

# Most (block, row) members one refinement state may hold. The largest
# state a test, a demo or the benchmark builds has 334,504.
BLOCK_ROW_CAP = 5_000_000
# About the most member lookups the maximal-block filter makes at once,
# over its (block, block on the rarest row) pairs; it bounds the filter's
# work arrays.
_PAIR_CHUNK = 1 << 16


@dataclass(frozen=True)
class BlockSet:
    """Unordered groups of row ids that jointly violate a key set; each has size >= 2."""

    blocks: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", frozenset(self.blocks))

    @property
    def row_ids(self) -> frozenset[int]:
        return frozenset().union(*self.blocks)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __bool__(self) -> bool:
        return bool(self.blocks)


def _check_fits(relation: Relation, ks: KeySet) -> None:
    if not ks.fits(relation.schema):
        raise ValueError("key set references attributes outside the relation's schema")


def _mix(pos: np.ndarray) -> np.ndarray:
    """A well-spread 64-bit hash of each row position (splitmix64)."""
    z = (pos.astype(np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _starts(blk: np.ndarray) -> np.ndarray:
    """Index of each block's first member in a state sorted by block."""
    return np.flatnonzero(_change(blk))


def _change(sorted_values: np.ndarray) -> np.ndarray:
    """True where a sorted array differs from its predecessor, and at 0."""
    out = np.ones(len(sorted_values), dtype=bool)
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=out[1:])
    return out


def _within(counts: np.ndarray) -> np.ndarray:
    """``0, 1, ..., c - 1`` for each count ``c``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _sort_pairs(hi: np.ndarray, hi_bound: int, lo: np.ndarray, lo_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct pairs ``(hi[i], lo[i])``, with values in ``[0, hi_bound)``
    and ``[0, lo_bound)``, sorted by ``hi``, then ``lo``.

    Each pair is packed into one int64, ``hi << bits | lo``, and sorted
    with a plain ``np.sort``, which is about three times faster than
    ``np.argsort`` on int64; the sorted pairs are read back from the high
    and the low bits. When ``hi_bound`` leaves no room for ``lo``'s bits
    in int64, ``np.lexsort`` sorts the pairs instead.
    """
    bits = max(lo_bound - 1, 1).bit_length()
    if hi_bound > 1 << (63 - bits):
        order = np.lexsort((lo, hi))
        return hi[order], lo[order]
    packed = np.sort(hi << bits | lo)
    return packed >> bits, packed & ((1 << bits) - 1)


def _dense(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of ``key`` (values below ``bound``) and its
    values' dense ranks in that order."""
    values, order = _sort_pairs(key, bound, np.arange(len(key)), len(key))
    return order, np.cumsum(_change(values)) - 1


def _drop_blocks(blk: np.ndarray, pos: np.ndarray, drop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state without the blocks that ``drop`` marks, renumbered."""
    keep = ~drop[blk]
    return (np.cumsum(~drop) - 1)[blk[keep]], pos[keep]


def _merge_identical(blk: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop every block whose member set equals another's.

    Blocks are ordered by size and membership hash; each block with the
    same size and hash as its predecessor is compared with it member by
    member, so no two different blocks are ever merged. (A hash collision
    can only leave a duplicate in place, and :class:`BlockSet`'s
    frozenset drops it.)
    """
    starts = _starts(blk)
    sizes = np.diff(starts, append=len(pos))
    hashes = np.add.reduceat(_mix(pos), starts)
    order = np.lexsort((hashes, sizes))
    run = _change(sizes[order]) | _change(hashes[order])
    if run.all():
        return blk, pos
    dup = np.flatnonzero(~run)
    cand, prev = order[dup], order[dup - 1]
    width = sizes[cand]
    within = _within(width)
    equal = pos[np.repeat(starts[cand], width) + within] == pos[np.repeat(starts[prev], width) + within]
    drop = np.zeros(len(starts), dtype=bool)
    drop[cand[np.logical_and.reduceat(equal, np.cumsum(width) - width)]] = True
    return _drop_blocks(blk, pos, drop)


def _split(codes: np.ndarray, blk: np.ndarray, pos: np.ndarray, overlap: bool, cols: list[int], complete: bool):
    """One refinement round: split every block on the columns ``cols``.

    A state is a pair of arrays, block id and row position, sorted by
    (block, row). Members total on ``cols`` are grouped by (block,
    projection); incomplete members are copied into every class of their
    block, and a block with no total member keeps its incomplete rows as
    one block. Classes of fewer than two rows are dropped. Only blocks that
    share a row can come out identical, so identical blocks are merged only
    when ``overlap`` (the input state has a row in two blocks) or some
    member is incomplete on the key; the returned flag says whether the
    new state overlaps. ``complete`` says that no cell of ``cols`` is
    missing, so the round skips its totality scan.

    Each key column is gathered from its contiguous column of ``codes``;
    on the first state, one block holding every row in order, it is read
    in place. The (class key, row) pairs are sorted once
    (:func:`_sort_pairs`), and the classes are read off the sorted keys: a
    member is kept when it equals a neighbour, and the kept members'
    changes of value number the new blocks. Only when some member is
    incomplete are classes numbered for every member, since each copy of
    an incomplete row needs the number of the class it joins; the copies
    then join the members in one more sort of (class, row) pairs.
    """
    n = len(codes)
    nblocks = int(blk[-1]) + 1
    # a block never holds a row twice, so this is the first state: pos == arange(n)
    whole = nblocks == 1 and len(pos) == n
    sub = [codes[:, c] if whole else codes[:, c][pos] for c in cols]
    if complete:
        all_total = True
    else:
        total = np.logical_and.reduce([s >= 0 for s in sub])
        all_total = total.all()
    if all_total:
        t_blk, t_pos = blk, pos
    else:
        t = np.flatnonzero(total)
        t_blk, t_pos, sub = blk[t], pos[t], [s[t] for s in sub]
    # class key: block id, then each key column, in mixed radix; re-densify
    # whenever the next step would leave no room below it for a row
    # position, or for _dense's index. With one block the block id is 0
    # throughout, so the first column starts it.
    if nblocks == 1:
        key, bound, sub = sub[0].astype(np.int64), int(sub[0].max(initial=0)) + 1, sub[1:]
    else:
        key, bound = t_blk.astype(np.int64), nblocks
    room = 1 << (63 - max(n - 1, len(key) - 1, 1).bit_length())
    for s in sub:
        card = int(s.max(initial=0)) + 1
        if bound * card > room:
            order, rank = _dense(key, bound)
            key = np.empty_like(rank)
            key[order] = rank
            bound = int(rank[-1]) + 1
        key *= card
        key += s
        bound *= card
    # (class, row) pairs are distinct, since a block never holds a row
    # twice; sorted, rows ascend inside each class
    key, new_pos = _sort_pairs(key, bound, t_pos, n)
    if not all_total:
        start = _change(key)
        cls = np.cumsum(start) - 1
        # the sort is block-major, so the i-th member is in block t_blk[i]
        per_block = np.bincount(t_blk[start], minlength=nblocks)
        i = np.flatnonzero(~total)
        i_blk, i_pos = blk[i], pos[i]
        copies = per_block[i_blk]
        orphan = copies == 0
        size = len(new_pos) + int(copies.sum()) + int(np.count_nonzero(orphan))
        if size > BLOCK_ROW_CAP:
            raise ResourceLimit("block rows", size, BLOCK_ROW_CAP)
        class_start = np.cumsum(per_block) - per_block
        c_cls = np.repeat(class_start[i_blk], copies) + _within(copies)
        o_cls = np.cumsum(_change(i_blk[orphan])) - 1 + per_block.sum()
        cls = np.concatenate((cls, c_cls, o_cls))
        new_pos = np.concatenate((new_pos, np.repeat(i_pos, copies), i_pos[orphan]))
        # a row joins each class at most once
        key, new_pos = _sort_pairs(cls, int(cls.max()) + 1, new_pos, n)
    # a class of two or more rows is a run of equal neighbours
    same = key[1:] == key[:-1]
    kept = np.zeros(len(key), dtype=bool)
    kept[1:] = same
    kept[:-1] |= same
    kept = np.flatnonzero(kept)
    blk, pos = np.cumsum(_change(key[kept])) - 1, new_pos[kept]
    if overlap or not all_total:
        seen = np.zeros(n, dtype=bool)
        seen[pos] = True
        overlap = np.count_nonzero(seen) < len(pos)
        if overlap:
            blk, pos = _merge_identical(blk, pos)
    return blk, pos, overlap


def _refine(relation: Relation, keys: Iterable[AttrSet]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the block state after each of ``keys``, in the order given.

    A key is any set of columns: a key of the key set, or one of
    :func:`_plan`'s rounds of complete columns.
    """
    codes, nulls = relation.codes, relation.null_counts
    blk = np.zeros(len(codes) if len(codes) > 1 else 0, dtype=np.intp)
    pos = np.arange(len(blk))
    overlap = False
    for key in keys:
        if len(pos):
            cols = sorted(key)
            blk, pos, overlap = _split(codes, blk, pos, overlap, cols, not any(nulls[c] for c in cols))
        yield blk, pos


def _plan(relation: Relation, ks: KeySet) -> list[AttrSet]:
    """The rounds in which :func:`violating_blocks` and :func:`satisfies`
    refine ``ks``: first its complete columns, then its keys with missing
    cells.

    A key whose columns hold no missing cell is dissolved into its columns.
    Every row is total on them, so each refinement on them only partitions
    blocks by projection and copies no row; partitions compose, in any
    grouping and order, into the partition by their union, and a class
    dropped as a singleton stays one under any finer partition. Two rows
    agree on every complete key iff they agree on that union, so the
    complete keys may be refined as any rounds of their columns. The
    columns go most distinct first (dictionary sizes) and are grouped
    greedily into rounds whose product of dictionary sizes fits one
    packed sort of every row (:func:`_sort_pairs`).

    The keys with missing cells follow, each as one round. Each
    incomplete row is copied into every class of its block, so such a
    round makes at most its missing cells (:attr:`Relation.null_counts`)
    times its classes, which are at most the product of its columns'
    dictionary sizes and at most the row count. The rounds go in
    ascending order of that bound, ties in canonical order.
    """
    nulls = relation.null_counts
    sizes = [len(d) for d in relation.dictionaries]
    rows = len(relation)
    columns: set[int] = set()
    partial = []
    for key in ks.keys:
        missing = sum(nulls[a] for a in key)
        if missing:
            partial.append((missing * min(math.prod(sizes[a] for a in key), rows), attr_sort_key(key), key))
        else:
            columns |= key
    room = 1 << (63 - rows.bit_length())
    rounds: list[set[int]] = []
    product = 0
    for c in sorted(columns, key=lambda c: (-sizes[c], c)):
        if not rounds or product * sizes[c] > room:
            rounds.append(set())
            product = 1
        rounds[-1].add(c)
        product *= sizes[c]
    partial.sort()
    return [*map(frozenset, rounds), *(key for *_, key in partial)]


def _blockset(relation: Relation, blk: np.ndarray, pos: np.ndarray) -> BlockSet:
    """Map a state's row positions back to row ids."""
    ids = relation.row_ids[pos].tolist()
    bounds = [*_starts(blk).tolist(), len(ids)]
    return BlockSet(frozenset(frozenset(ids[a:b]) for a, b in zip(bounds, bounds[1:])))


def block_trace(relation: Relation, ks: KeySet) -> list[BlockSet]:
    """Raw block state after each key, in canonical key order.

    Entry ``i`` is the block set after refining with the first ``i + 1``
    keys of ``ks.sorted_keys``; the last entry is the final (unfiltered)
    state. Its maximal blocks are those of :func:`violating_blocks`, which
    refines in other rounds.
    """
    _check_fits(relation, ks)
    return [_blockset(relation, blk, pos) for blk, pos in _refine(relation, ks.sorted_keys)]


def _maximal_only(blk: np.ndarray, pos: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Drop every block of a state that a larger block contains.

    A block holding all of ``b``'s rows holds its rarest row, the member of
    ``b`` in the fewest blocks (the lowest position on ties), so ``b`` is
    paired only with the larger blocks on that row whose row signature
    covers ``b``'s. All pairs are then checked in one membership pass:
    every member of ``b`` is looked up in the larger block, and ``b`` is
    dropped when all are found. Pairs are made a chunk of candidates at a
    time, of at most :data:`_PAIR_CHUNK` lookups or a single candidate's.
    A candidate takes ``count[rare] * |b|`` lookups, at most the sum of
    its members' counts and so at most the state's rows, so no chunk
    outgrows :data:`BLOCK_ROW_CAP`. Equal blocks never drop each other:
    only a hash collision in :func:`_merge_identical` leaves any, and
    :class:`BlockSet`'s frozenset drops them.
    """
    count = np.bincount(pos, minlength=n)
    if count.max(initial=0) < 2:
        return blk, pos  # no row is in two blocks, so none holds another
    starts = _starts(blk)
    sizes = np.diff(starts, append=len(pos))
    # each block's rarest row, the lowest position on ties
    rare = np.minimum.reduceat(count[pos] * n + pos, starts) % n
    # inverted index: the blocks on each row, ascending, row after row
    on_row = _sort_pairs(pos, n, blk, len(starts))[1]
    row_start = np.cumsum(count) - count
    # the state's (block, row) pairs as sorted keys, and a sentinel past them
    key = np.append(blk * n + pos, len(starts) * n)
    # one hashed bit per member: a block that holds b has every bit of b's
    sig = np.bitwise_or.reduceat(np.uint64(1) << (_mix(pos) & np.uint64(63)), starts)
    cand = np.flatnonzero(count[rare] > 1)
    pairs = count[rare[cand]]
    lookups = pairs * sizes[cand]
    ends = np.cumsum(lookups)
    drop = np.zeros(len(starts), dtype=bool)
    lo = 0
    while lo < len(cand):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - lookups[lo] + _PAIR_CHUNK, side="right")))
        k = pairs[lo:hi]
        b = np.repeat(cand[lo:hi], k)
        o = on_row[np.repeat(row_start[rare[cand[lo:hi]]], k) + _within(k)]
        larger = (sizes[o] > sizes[b]) & (sig[b] & ~sig[o] == 0)
        b, o = b[larger], o[larger]
        width = sizes[b]
        q = np.repeat(o * n, width) + pos[np.repeat(starts[b], width) + _within(width)]
        found = key[np.searchsorted(key, q)] == q
        drop[b[np.logical_and.reduceat(found, np.cumsum(width) - width)]] = True
        lo = hi
    return _drop_blocks(blk, pos, drop)


def violating_blocks(relation: Relation, ks: KeySet) -> BlockSet:
    """Violating rows grouped into blocks, reporting maximal blocks only.

    The relation satisfies ``ks`` iff the result is empty. Refines the
    columns of the complete keys first, in packed rounds, then the keys
    with missing cells (:func:`_plan`); the maximal blocks are the same in
    every plan (see the module docstring). Use :func:`block_trace` for
    the raw per-key states, in canonical key order.
    """
    _check_fits(relation, ks)
    for state in _refine(relation, _plan(relation, ks)):
        pass
    return _blockset(relation, *_maximal_only(*state, len(relation)))


def _wild(relation: Relation, rounds: list[AttrSet]) -> dict[int, np.ndarray]:
    """``{t: mask}``: the rows that miss a cell of round ``t`` and of
    every round after it.

    Only the tail of ``rounds`` whose keys have missing cells gets a mask:
    a round of complete columns makes no row incomplete, and :func:`_plan`
    puts those first, so a total relation gets none.
    """
    codes, nulls = relation.codes, relation.null_counts
    wild: dict[int, np.ndarray] = {}
    for t in reversed(range(len(rounds))):
        if not any(nulls[c] for c in rounds[t]):
            break
        missing = np.logical_or.reduce([codes[:, c] < 0 for c in rounds[t]])
        wild[t] = missing & wild.get(t + 1, True)
    return wild


def satisfies(relation: Relation, ks: KeySet) -> bool:
    """True iff every pair of distinct rows is separated by some key.

    Refines in the rounds :func:`violating_blocks` uses and stops at the
    first empty state; whether one is reached does not depend on the plan.
    It answers ``False`` as soon as a state holds a wild row, one that
    misses a cell of every round still to come (:func:`_wild` maps each
    round to those rows), and before any round when no round is complete
    and some row misses a cell of every key. That is sound: each block
    holds two or more rows that no round so far separates, and a key
    separates two rows only when both are total on it, so no later round
    separates the wild row from the others of its block.
    """
    _check_fits(relation, ks)
    rounds = _plan(relation, ks)
    wild = _wild(relation, rounds)
    if 0 in wild and len(relation) > 1 and wild[0].any():
        return False
    for t, (_, pos) in enumerate(_refine(relation, rounds), start=1):
        if not len(pos):
            return True
        if t in wild and wild[t][pos].any():
            return False
    return False


def violating_tuples_naive(relation: Relation, ks: KeySet) -> frozenset[int]:
    """Row ids with a partner row that no key separates (all-pairs scan)."""
    _check_fits(relation, ks)
    n = len(relation)
    if n < 2:
        return frozenset()
    codes = relation.codes
    keys = [np.array(sorted(key), dtype=np.intp) for key in sorted(ks.keys, key=attr_sort_key)]
    total = [(codes[:, cols] >= 0).all(axis=1) for cols in keys]
    flagged = np.zeros(n, dtype=bool)
    chunk = max(1, 8_000_000 // n)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        m = stop - start
        # remaining[i, j]: no key processed so far separates rows start+i and j
        remaining = np.ones((m, n), dtype=bool)
        remaining[np.arange(m), np.arange(start, stop)] = False
        for cols, tot in zip(keys, total):
            both_total = tot[start:stop, None] & tot[None, :]
            if not both_total.any():
                continue
            diff = np.zeros((m, n), dtype=bool)
            for c in cols:
                diff |= codes[start:stop, c, None] != codes[None, :, c]
            remaining &= ~(both_total & diff)
            if not remaining.any():
                break
        flagged[start:stop] |= remaining.any(axis=1)
    return frozenset(relation.row_ids[flagged].tolist())
