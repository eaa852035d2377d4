"""Partitioned permutations: a permutation together with a coarsening of its
cycle partition, measured by the two-sided length 2|U| - |perm|.

The product of two partitioned permutations is their join-and-compose when
lengths add up, and the absorbing element ZERO otherwise. Membership in the
non-crossing class is equivalently a product identity or a bipartite tree
condition; both routes are implemented and cross-checked by the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .annular import NEITHER, classify_relative, gamma_of
from .graphs import LabeledDigraph, block_bipartite
from .permutations import Permutation
from .setpartitions import SetPartition, _growth_strings

Shape = tuple[int, ...]


class _Zero:
    """Absorbing product result; a singleton value, not an exception."""

    _instance: "_Zero | None" = None

    def __new__(cls) -> "_Zero":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ZERO"


ZERO = _Zero()


@dataclass(frozen=True)
class PartitionedPermutation:
    part: SetPartition
    perm: Permutation
    shape: Shape

    def __post_init__(self):
        m = sum(self.shape)
        if self.perm.n != m:
            raise ValueError(f"permutation acts on {self.perm.n} points, shape needs {m}")
        if self.part.ground() != set(range(1, m + 1)):
            raise ValueError("partition must cover 1..m")
        for cyc in self.perm.cycles():
            first = self.part.block_of(cyc[0])
            if any(self.part.block_of(x) != first for x in cyc):
                raise ValueError(f"cycle {cyc} straddles blocks of the partition")

    def length(self) -> int:
        """2|part| - |perm| = m - 2#(part) + #(perm)."""
        m = self.perm.n
        return m - 2 * self.part.num_blocks() + self.perm.num_cycles()

    def __str__(self) -> str:
        return f"({self.part}; {self.perm})"


def pp_product(
    a: PartitionedPermutation, b: PartitionedPermutation
) -> "PartitionedPermutation | _Zero":
    """Join the partitions and compose the permutations — but only when the
    lengths are additive; otherwise ZERO."""
    if a.shape != b.shape:
        raise ValueError("operands live over different shapes")
    joined = a.part.join(b.part)
    composed = a.perm * b.perm
    # Cycles of the composition always sit inside joined blocks, so the
    # length can be read off before paying for a validated construction.
    length = composed.n - 2 * joined.num_blocks() + composed.num_cycles()
    if length != a.length() + b.length():
        return ZERO
    return PartitionedPermutation(joined, composed, a.shape)


@lru_cache(maxsize=1 << 16)
def _orbit_join(perm: Permutation, g: Permutation) -> SetPartition:
    return perm.cycle_partition().join(g.cycle_partition())


@lru_cache(maxsize=1 << 16)
def _closing_element(perm: Permutation, g: Permutation, shape: Shape) -> PartitionedPermutation:
    """The factor closing perm up to the boundary permutation: perm^-1 g over
    its own cycle partition."""
    rest = perm.inverse() * g
    return PartitionedPermutation(rest.cycle_partition(), rest, shape)


def product_membership(pp: PartitionedPermutation) -> bool:
    """Membership via the defining product identity: multiplying by the
    complementary cycle factor must land exactly on the full-block boundary
    element."""
    g = gamma_of(pp.shape)
    other = _closing_element(pp.perm, g, pp.shape)
    result = pp_product(pp, other)
    if result is ZERO:
        return False
    assert result.perm == g
    return result.part.num_blocks() == 1


def gamma_graph(pp: PartitionedPermutation) -> LabeledDigraph:
    """Bipartite block graph of the partitioned permutation against its
    boundary permutation: components versus blocks, one edge per cycle.

    Only defined when the permutation is annular non-crossing (connected or
    not) for the shape.
    """
    g = gamma_of(pp.shape)
    if classify_relative(pp.perm, g) == NEITHER:
        raise ValueError("permutation is not annular non-crossing for this shape")
    return block_bipartite(pp.perm.cycles(), pp.part, _orbit_join(pp.perm, g))


def is_nc_partitioned_perm(pp: PartitionedPermutation) -> bool:
    """Tree route: annular non-crossing permutation and a tree block graph."""
    g = gamma_of(pp.shape)
    if classify_relative(pp.perm, g) == NEITHER:
        return False
    return gamma_graph(pp).is_tree()


# ---------------------------------------------------------------------------
# Enumerations


def _ps_nc_scan(
    shape: Shape, images: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], list[list[int]], tuple[int, ...], int]]:
    """The candidates behind the non-crossing enumerations, on plain ints.

    For each permutation pi, given by its images of 1..m, that length
    additivity does not rule out, yields (images, cycles, labels, k): the
    cycles of pi ordered by their minima; for each cycle, its component in
    the graph where every cycle of pi^-1 gamma links the cycles of pi it
    meets (components numbered by first occurrence); and the block count k
    the partition must have. The members over pi are its groupings in
    _connecting_groupings(labels, k).
    """
    g = gamma_of(shape)
    m, r = g.n, g.num_cycles()
    gamma = [0] + [g(x) for x in range(1, m + 1)]
    for img in images:
        which = [-1] * (m + 1)
        cycles: list[list[int]] = []
        for start in range(1, m + 1):
            if which[start] < 0:
                which[start] = len(cycles)
                cyc = [start]
                x = img[start - 1]
                while x != start:
                    which[x] = len(cycles)
                    cyc.append(x)
                    x = img[x - 1]
                cycles.append(cyc)
        inv = [0] * (m + 1)
        for x, y in enumerate(img, 1):
            inv[y] = x
        seen = [False] * (m + 1)
        links: list[list[int]] = []
        for start in range(1, m + 1):
            if not seen[start]:
                seen[start] = True
                met = [which[start]]
                x = inv[gamma[start]]
                while x != start:
                    seen[x] = True
                    met.append(which[x])
                    x = inv[gamma[x]]
                links.append(met)
        t = len(cycles)
        k2 = m + 2 - r + t - len(links)
        if k2 <= 0 or k2 % 2 or k2 > 2 * t:
            continue
        yield img, cycles, _component_labels(t, links), k2 // 2


def _component_labels(t: int, links: list[list[int]]) -> tuple[int, ...]:
    """Component of each of t nodes once every list in `links` is merged,
    numbered in order of first occurrence."""
    root = list(range(t))
    for met in links:
        a = met[0]
        while root[a] != a:
            a = root[a]
        for b in met[1:]:
            while root[b] != b:
                b = root[b]
            if b != a:
                root[b] = a
    first: dict[int, int] = {}
    labels = []
    for x in range(t):
        while root[x] != x:
            x = root[x]
        labels.append(first.setdefault(x, len(first)))
    return tuple(labels)


@lru_cache(maxsize=None)
def _connecting_groupings(
    labels: tuple[int, ...], k: int
) -> tuple[tuple[int, ...], ...]:
    """Growth strings grouping the cycles into k blocks such that the blocks
    link all components of `labels`, in lexicographic order.

    These are exactly the coarsenings whose join with the cycle partition of
    pi^-1 gamma is a single block.
    """
    full = (1 << (max(labels) + 1)) - 1
    out = []
    for rgs in _growth_strings(len(labels), k):
        masks = [0] * k
        for label, b in zip(labels, rgs):
            masks[b] |= 1 << label
        reach, grown = masks[0], True
        while grown:
            grown = False
            for mask in masks:
                if mask & reach and mask | reach != reach:
                    reach |= mask
                    grown = True
        if reach == full:
            out.append(rgs)
    return tuple(out)


def _members(
    shape: Shape, images: Iterable[tuple[int, ...]]
) -> Iterator[PartitionedPermutation]:
    for img, cycles, labels, k in _ps_nc_scan(shape, images):
        perm = Permutation(img)
        for rgs in _connecting_groupings(labels, k):
            blocks: list[list[int]] = [[] for _ in range(k)]
            for cyc, b in zip(cycles, rgs):
                blocks[b].extend(cyc)
            yield PartitionedPermutation(SetPartition(blocks), perm, shape)


def enumerate_ps_nc(shape: Sequence[int]) -> Iterator[PartitionedPermutation]:
    """All non-crossing partitioned permutations for the shape, lazily, by
    exhaustive scan over the symmetric group with the length filter.

    Ordered by permutation (lexicographic images), then by partition
    (restricted growth string over the cycles)."""
    shape = tuple(shape)
    yield from _members(shape, itertools.permutations(range(1, sum(shape) + 1)))


def _involution_images(m: int) -> Iterator[tuple[int, ...]]:
    """Cycle type <= 2: partial pairings with fixed points allowed, as image
    tuples in lexicographic order."""
    img = list(range(1, m + 1))

    def rec(free: list[int]) -> Iterator[tuple[int, ...]]:
        if not free:
            yield tuple(img)
            return
        a = free[0]
        yield from rec(free[1:])
        for j in range(1, len(free)):
            b = free[j]
            img[a - 1], img[b - 1] = b, a
            yield from rec(free[1:j] + free[j + 1 :])
            img[a - 1], img[b - 1] = a, b

    yield from rec(list(range(1, m + 1)))


def enumerate_ps_nc2(shape: Sequence[int]) -> Iterator[PartitionedPermutation]:
    """Members whose permutation is a pairing.

    The same scan as enumerate_ps_nc, over the fixed-point-free involutions
    only; ordered by pairing (lexicographic images), then by partition."""
    shape = tuple(shape)
    pairings = (
        img
        for img in _involution_images(sum(shape))
        if all(x != y for x, y in enumerate(img, 1))
    )
    yield from _members(shape, pairings)


def enumerate_ps_nc21(shape: Sequence[int]) -> Iterator[PartitionedPermutation]:
    """Members whose permutation has cycles of length at most two."""
    shape = tuple(shape)
    yield from _members(shape, _involution_images(sum(shape)))


def loop_pairs(perm: Permutation, shape: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Pairs of the pairing whose two legs land in one cycle of gamma*perm."""
    g = gamma_of(tuple(shape))
    orbits = (g * perm).cycle_partition()
    return tuple(
        cyc
        for cyc in perm.cycles()
        if len(cyc) == 2 and orbits.same_block(cyc[0], cyc[1])
    )


def is_loop_free(pp: PartitionedPermutation) -> bool:
    """Every loop pair of the pairing must be a block of the partition."""
    blocks = set(pp.part.blocks)
    return all(cyc in blocks for cyc in loop_pairs(pp.perm, pp.shape))


def enumerate_ps_nc2_loopfree(
    shape: Sequence[int],
) -> Iterator[PartitionedPermutation]:
    """Pairing members whose loop pairs all stand alone as blocks."""
    for pp in enumerate_ps_nc2(shape):
        if is_loop_free(pp):
            yield pp


# ---------------------------------------------------------------------------
# Relatedness of blocks


def related_blocks(
    pp: PartitionedPermutation,
) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """For each block, the other blocks holding a pair with the same
    unordered orbit footprint as one of its own pairs.

    The permutation must be a pairing and the element a member of the
    pairing class.
    """
    if not pp.perm.is_involution_without_fixed_points():
        raise ValueError("related_blocks needs a pairing-type permutation")
    if not product_membership(pp):
        raise ValueError("not a member of the pairing class")
    return _related_blocks(pp)


def _related_blocks(
    pp: PartitionedPermutation,
) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """related_blocks without the checks, for callers that made them."""
    g = gamma_of(pp.shape)
    orbits = (g * pp.perm).cycle_partition()

    def footprint(cyc: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
        return frozenset(orbits.block_of(x) for x in cyc)

    pairs_in: dict[tuple[int, ...], list[tuple[int, ...]]] = {
        b: [] for b in pp.part.blocks
    }
    for cyc in pp.perm.cycles():
        pairs_in[pp.part.block_of(cyc[0])].append(cyc)

    out: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
    for block in pp.part.blocks:
        mine = {footprint(c) for c in pairs_in[block]}
        others = []
        for other in pp.part.blocks:
            if other == block:
                continue
            if any(footprint(c) in mine for c in pairs_in[other]):
                others.append(other)
        out[block] = tuple(others)
    return out


def is_maximal(pp: PartitionedPermutation) -> bool:
    """Whether some block is related to no other block."""
    return any(not others for others in related_blocks(pp).values())
