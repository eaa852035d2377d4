"""Set partitions of finite integer ground sets.

A partition is stored canonically: each block a sorted tuple, blocks ordered
by their minimum. Partitions compare equal iff they have the same blocks, and
they are hashable, so they can key dicts and live in sets.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .unionfind import UnionFind


def _canonical(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    out = [tuple(sorted(b)) for b in blocks if len(tuple(b)) > 0]
    seen: set[int] = set()
    for b in out:
        for x in b:
            if x in seen:
                raise ValueError(f"element {x} appears in two blocks")
            seen.add(x)
    out.sort(key=lambda b: b[0])
    return tuple(out)


class SetPartition:
    """An unordered partition of a finite set of integers into blocks.

    >>> p = SetPartition([[4, 1], [3, 2]])
    >>> str(p)
    '{1,4},{2,3}'
    >>> p.block_of(3)
    (2, 3)
    """

    __slots__ = ("blocks", "_where")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        self.blocks = _canonical(blocks)
        self._where = {x: b for b in self.blocks for x in b}

    @staticmethod
    def singletons(ground: Iterable[int]) -> "SetPartition":
        return SetPartition([[x] for x in ground])

    @staticmethod
    def full(ground: Iterable[int]) -> "SetPartition":
        ground = list(ground)
        return SetPartition([ground] if ground else [])

    @staticmethod
    def parse(text: str) -> "SetPartition":
        """Parse '{1,4,5,8},{2,3,6,7}' (whitespace tolerated)."""
        text = text.strip()
        if not text:
            return SetPartition([])
        blocks = []
        for chunk in text.replace(" ", "").split("},{"):
            chunk = chunk.strip("{}")
            if chunk:
                blocks.append([int(tok) for tok in chunk.split(",")])
        return SetPartition(blocks)

    def ground(self) -> frozenset[int]:
        return frozenset(self._where)

    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, x: int) -> tuple[int, ...]:
        return self._where[x]

    def same_block(self, x: int, y: int) -> bool:
        return self._where[x] is self._where[y]

    def refines(self, other: "SetPartition") -> bool:
        """True if every block of self lies inside a block of other."""
        if self.ground() != other.ground():
            raise ValueError("partitions on different ground sets")
        return all(set(b) <= set(other._where[b[0]]) for b in self.blocks)

    def join(self, other: "SetPartition") -> "SetPartition":
        """Least common coarsening of two partitions of the same set."""
        if self.ground() != other.ground():
            raise ValueError("partitions on different ground sets")
        uf = UnionFind(self._where)
        for part in (self, other):
            for b in part.blocks:
                for x in b[1:]:
                    uf.union(b[0], x)
        return SetPartition(uf.groups())

    def restrict(self, subset: Iterable[int]) -> "SetPartition":
        """Intersect every block with `subset`, dropping empties.

        >>> str(SetPartition([[1, 2, 3], [4, 5]]).restrict({2, 4}))
        '{2},{4}'
        >>> str(SetPartition([[1, 4], [2, 3]]).restrict({1, 2, 3}))
        '{1},{2,3}'
        """
        keep = set(subset)
        if not keep <= self.ground():
            raise ValueError("subset not contained in the ground set")
        return SetPartition([[x for x in b if x in keep] for b in self.blocks])

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(b) for b in self.blocks))

    def is_pair_partition(self) -> bool:
        return all(len(b) == 2 for b in self.blocks)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetPartition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)

    def __repr__(self) -> str:
        return f"SetPartition.parse({str(self)!r})"


def enumerate_partitions(n: int, nblocks: int | None = None) -> Iterator[SetPartition]:
    """All partitions of {1..n}, lazily, in restricted-growth-string order.

    With `nblocks` set, only partitions with exactly that many blocks are
    produced (same relative order).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    for assign in _growth_strings(n, nblocks):
        blocks: list[list[int]] = [[] for _ in range(max(assign, default=-1) + 1)]
        for pos, b in enumerate(assign):
            blocks[b].append(pos + 1)
        yield SetPartition(blocks)


def _growth_strings(n: int, nblocks: int | None = None) -> Iterator[tuple[int, ...]]:
    """Restricted growth strings a of length n (a[0] = 0, a[i] <= 1 +
    max(a[:i])) in lexicographic order; with `nblocks` set, only those using
    exactly that many values. a[i] is the block of element i + 1."""
    if n == 0:
        if nblocks in (None, 0):
            yield ()
        return

    def rec(i: int, maxi: int, assign: list[int]) -> Iterator[tuple[int, ...]]:
        if i == n:
            if nblocks is None or maxi + 1 == nblocks:
                yield tuple(assign)
            return
        # Even finishing every remaining element in its own new block cannot
        # reach nblocks if we already exceeded it, or cannot climb high enough.
        if nblocks is not None:
            if maxi + 1 > nblocks or maxi + 1 + (n - i) < nblocks:
                return
        for b in range(maxi + 2):
            assign.append(b)
            yield from rec(i + 1, max(maxi, b), assign)
            assign.pop()

    yield from rec(1, 0, [0])


def enumerate_pairings(n: int) -> Iterator[SetPartition]:
    """All partitions of {1..n} into blocks of size 2, lazily.

    Empty for odd (or zero-with-leftover) n; (n-1)!! many otherwise. The
    smallest free element is always paired first, so the order is
    deterministic.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 1:
        return

    def rec(free: list[int], acc: list[tuple[int, int]]) -> Iterator[SetPartition]:
        if not free:
            yield SetPartition(acc)
            return
        a = free[0]
        for j in range(1, len(free)):
            b = free[j]
            acc.append((a, b))
            yield from rec(free[1:j] + free[j + 1 :], acc)
            acc.pop()

    yield from rec(list(range(1, n + 1)), [])


def bell_number(n: int) -> int:
    """Bell numbers via the triangle recurrence (independent of enumeration)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]
