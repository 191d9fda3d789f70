"""Key-set validation over relations with missing values.

Two independent routes compute which rows take part in a violation:

* :func:`violating_tuples_naive` checks every pair of rows against every
  key, straight from the definition. Quadratic in the number of rows; the
  pairwise comparisons are vectorized with numpy so large inputs stay
  usable, but the output is exactly the definitional all-pairs result.

* :func:`violating_blocks` refines a block partition one key at a time.
  Rows that are total on the current key are grouped by their projection;
  incomplete rows join every class of their block, because a missing value
  can match anything. Each key is one round of numpy sorting and grouping
  over the relation's integer codes (:attr:`Relation.codes`), so the run
  time is linear in rows times total key size, up to the sort's log factor,
  for bounded block overlap. :func:`block_trace` and :func:`satisfies` run
  the same refinement loop; ``satisfies`` stops at the first empty state.

Both routes read ``Relation.codes``, the relation's storage, which
:meth:`Relation.from_values` (and so ``load_csv``) builds at ingest;
row positions map to ids through ``Relation.row_ids``.

The union of the returned blocks always equals the naive violating set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import KeySet, Relation, attr_sort_key

__all__ = ["BlockSet", "block_trace", "satisfies", "violating_blocks", "violating_tuples_naive"]


@dataclass(frozen=True)
class BlockSet:
    """Groups of row ids that jointly violate a key set; each has size >= 2."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        canon = sorted(set(self.blocks), key=lambda b: tuple(sorted(b)))
        object.__setattr__(self, "blocks", tuple(canon))

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


def _dense(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of ``key`` (values below ``bound``) and its values'
    dense ranks in that order. Ties broken by index make any sort stable, and
    a plain sort of ``key * len + index`` is several times faster if it fits."""
    m = len(key)
    order = np.argsort(key * m + np.arange(m)) if bound * m < 1 << 63 else np.argsort(key, kind="stable")
    return order, np.cumsum(_change(key[order])) - 1


def _merge_identical(blk: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop every block whose member set equals an earlier one.

    Blocks with the same size and membership hash are candidates; each is
    compared member by member with the first block of its run, so no two
    different blocks are ever merged. (A hash collision can only leave a
    duplicate in place, and :class:`BlockSet` removes those.)
    """
    starts = _starts(blk)
    sizes = np.diff(starts, append=len(pos))
    hashes = np.add.reduceat(_mix(pos), starts)
    order = np.lexsort((hashes, sizes))
    run = _change(sizes[order]) | _change(hashes[order])
    if run.all():
        return blk, pos
    head = np.empty_like(order)
    head[order] = order[np.maximum.accumulate(np.where(run, np.arange(len(order)), 0))]
    cand = np.flatnonzero(head != np.arange(len(head)))
    width = sizes[cand]
    within = _within(width)
    equal = pos[np.repeat(starts[cand], width) + within] == pos[np.repeat(starts[head[cand]], width) + within]
    drop = np.zeros(len(starts), dtype=bool)
    drop[cand[np.logical_and.reduceat(equal, np.cumsum(width) - width)]] = True
    keep = ~drop[blk]
    return (np.cumsum(~drop) - 1)[blk[keep]], pos[keep]


def _split(codes: np.ndarray, blk: np.ndarray, pos: np.ndarray, overlap: bool, cols: list[int]):
    """One refinement round: split every block on the key ``cols``.

    A state is a pair of arrays, block id and row position, sorted by
    (block, row). Members total on the key are grouped by (block,
    projection); incomplete members are copied into every class of their
    block, and a block with no total member keeps its incomplete rows as
    one block. Classes of fewer than two rows are dropped. Only blocks that
    share a row can come out identical, so identical blocks are merged only
    when ``overlap`` (the input state has a row in two blocks) or some
    member is incomplete on the key; the returned flag says whether the
    new state overlaps.
    """
    n = len(codes)
    nblocks = int(blk[-1]) + 1
    sub = [codes[pos, c] for c in cols]
    total = np.logical_and.reduce([s >= 0 for s in sub])
    all_total = total.all()
    t_blk, t_pos, sub = (blk, pos, sub) if all_total else (blk[total], pos[total], [s[total] for s in sub])
    # class key: block id, then each key column, in mixed radix; re-densify
    # whenever the next step could leave int64
    key, bound = t_blk.astype(np.int64), nblocks
    for s in sub:
        card = int(s.max(initial=0)) + 1
        if bound * card >= 1 << 62:
            order, rank = _dense(key, bound)
            key = np.empty_like(rank)
            key[order] = rank
            bound = int(rank[-1]) + 1
        key = key * card + s
        bound *= card
    # the stable sort keeps rows ascending inside each class
    order, cls = _dense(key, bound)
    new_pos = t_pos[order]
    if not all_total:
        per_block = np.bincount(t_blk[order[_change(cls)]], minlength=nblocks)
        i_blk, i_pos = blk[~total], pos[~total]
        copies = per_block[i_blk]
        class_start = np.cumsum(per_block) - per_block
        c_cls = np.repeat(class_start[i_blk], copies) + _within(copies)
        orphan = copies == 0
        o_cls = np.cumsum(_change(i_blk[orphan])) - 1 + per_block.sum()
        cls = np.concatenate((cls, c_cls, o_cls))
        new_pos = np.concatenate((new_pos, np.repeat(i_pos, copies), i_pos[orphan]))
        order = np.argsort(cls * n + new_pos)
        cls, new_pos = cls[order], new_pos[order]
    keep = np.bincount(cls) >= 2
    member = keep[cls]
    blk, pos = (np.cumsum(keep) - 1)[cls[member]], new_pos[member]
    if overlap or not all_total:
        seen = np.zeros(n, dtype=bool)
        seen[pos] = True
        overlap = np.count_nonzero(seen) < len(pos)
        if overlap:
            blk, pos = _merge_identical(blk, pos)
    return blk, pos, overlap


def _refine(relation: Relation, ks: KeySet) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the block state after each key of ``ks``, in canonical order."""
    codes = relation.codes
    blk = np.zeros(len(codes) if len(codes) > 1 else 0, dtype=np.intp)
    pos = np.arange(len(blk))
    overlap = False
    for key in ks.sorted_keys:
        if len(pos):
            blk, pos, overlap = _split(codes, blk, pos, overlap, sorted(key))
        yield blk, pos


def _blockset(relation: Relation, blk: np.ndarray, pos: np.ndarray) -> BlockSet:
    """Map a state's row positions back to row ids."""
    ids = relation.row_ids[pos].tolist()
    bounds = [*_starts(blk).tolist(), len(ids)]
    return BlockSet(tuple(frozenset(ids[a:b]) for a, b in zip(bounds, bounds[1:])))


def block_trace(relation: Relation, ks: KeySet) -> list[BlockSet]:
    """Raw block state after each key, in canonical key order.

    Entry ``i`` is the block set after refining with the first ``i + 1``
    keys; the last entry is the final (unfiltered) state.
    """
    _check_fits(relation, ks)
    return [_blockset(relation, blk, pos) for blk, pos in _refine(relation, ks)]


def _maximal_only(blocks: tuple[frozenset[int], ...]) -> tuple[frozenset[int], ...]:
    if sum(map(len, blocks)) == len(frozenset().union(*blocks)):
        return blocks  # no row is in two blocks, so none holds another
    kept: list[frozenset[int]] = []
    for b in sorted(set(blocks), key=len, reverse=True):
        if not any(b < other for other in kept):
            kept.append(b)
    return tuple(kept)


def violating_blocks(relation: Relation, ks: KeySet) -> BlockSet:
    """Violating rows grouped into blocks, reporting maximal blocks only.

    The relation satisfies ``ks`` iff the result is empty. Use
    :func:`block_trace` for the raw per-key states.
    """
    _check_fits(relation, ks)
    for state in _refine(relation, ks):
        pass
    return BlockSet(_maximal_only(_blockset(relation, *state).blocks))


def satisfies(relation: Relation, ks: KeySet) -> bool:
    """True iff every pair of distinct rows is separated by some key."""
    _check_fits(relation, ks)
    return any(not len(pos) for _, pos in _refine(relation, ks))


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
