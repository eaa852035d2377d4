"""Exact fluctuation moments and their cumulant decomposition.

Three independent routes to the same numbers live here:

* moment_oracle — the defining limit sum over index partitions of prescribed
  block count, with the admissible entry-cumulant factorizations enumerated
  directly;
* fluctuation_moment — the closed combinatorial formula as a sum of pseudo
  cumulants over loop-free pairing elements;
* finite_n_moment — the exact pre-limit expansion at a concrete matrix size,
  valid for every N >= 1: a polynomial in N whose coefficients are tabulated
  once per shape by the same integer kernel as the oracle.

free_cumulants inverts the moment-cumulant relation over non-crossing
partitioned permutations; the inversion is triangular with unit diagonal, so
the table is determined once the moments are.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .annular import gamma_of
from .betapoly import BetaPoly
from .errors import CapabilityError
from .graphs import build_t, edge_classes, obstruction_set, quotient
from .partitioned import (
    PartitionedPermutation,
    _connecting_groupings,
    _ps_nc_scan,
    _related_blocks,
    enumerate_ps_nc2_loopfree,
    is_loop_free,
    product_membership,
)
from .setpartitions import SetPartition, _growth_strings

DEFAULT_ORACLE_BOUND = 8

CumulantTable = dict[tuple[int, ...], BetaPoly]


def _validate_orders(orders: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(x) for x in orders)
    if not out or any(x < 1 for x in out):
        raise ValueError(f"orders must be positive integers: {orders}")
    return out


# ---------------------------------------------------------------------------
# Entry-cumulant factor of a (tau, pi) pair


class _QuotientInfo:
    """Edge classes, loop classes, and per-label orientation signs of the
    quotient of the base graph by an index partition."""

    __slots__ = ("classes", "loop_reps", "sign")

    def __init__(self, shape: tuple[int, ...], pi: SetPartition):
        tq = quotient(build_t(shape), pi)
        self.classes = edge_classes(tq)
        self.loop_reps: set[int] = set()
        self.sign: dict[int, int] = {}
        anchor: dict[int, tuple[int, int]] = {}
        for label, src, trg in tq.edges:
            rep = self.classes.block_of(label)[0]
            if src == trg:
                self.loop_reps.add(rep)
                self.sign[label] = 0
            elif rep not in anchor:
                anchor[rep] = (src, trg)
                self.sign[label] = 1
            else:
                self.sign[label] = 1 if (src, trg) == anchor[rep] else -1

    def block_factor_index(self, block: tuple[int, ...]) -> int | None:
        """The even index n such that the block contributes b<n>, or None for
        a vanishing factor."""
        rep = self.classes.block_of(block[0])[0]
        if any(self.classes.block_of(x)[0] != rep for x in block[1:]):
            return None
        if len(block) < 2 or len(block) % 2:
            return None
        if rep in self.loop_reps:
            return 2 if len(block) == 2 else None
        if sum(self.sign[x] for x in block) != 0:
            return None
        return len(block)


def k_tau_pi(shape: Sequence[int], tau: SetPartition, pi: SetPartition) -> BetaPoly:
    """Product of entry-cumulant factors for a grouping tau of the labels
    under the index identification pi. Zero whenever any block straddles edge
    classes, is odd or a singleton, sits unbalanced on its vertex pair, or
    groups more than two diagonal entries."""
    shape = _validate_orders(shape)
    m = sum(shape)
    ground = set(range(1, m + 1))
    if tau.ground() != ground or pi.ground() != ground:
        raise ValueError("tau and pi must partition 1..m")
    info = _QuotientInfo(shape, pi)
    mono = []
    for block in tau.blocks:
        idx = info.block_factor_index(block)
        if idx is None:
            return BetaPoly.zero()
        mono.append(idx)
    return BetaPoly({tuple(sorted(mono)): 1})


# ---------------------------------------------------------------------------
# tau-sum kernel over index partitions, shared by the oracle and finite-N routes


def _circle_frame(shape: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """gamma as 0-based images, and the circle (0..r-1) of every 0-based label."""
    g = gamma_of(shape)
    succ = tuple(g(j) - 1 for j in range(1, g.n + 1))
    circle = tuple(c for c, length in enumerate(shape) for _ in range(length))
    return succ, circle


@lru_cache(maxsize=None)
def _class_groupings(
    n: int, loop: bool
) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """(sorted block sizes, blocks) of every admissible grouping of an edge
    class of n labels, blocks given as positions 0..n-1 in the class.

    A loop class admits its pairings. Any other class is listed with its
    n/2 labels of one orientation first, then the n/2 of the other, and
    admits the groupings whose blocks hold as many of each, which makes
    every block even. Keyed by n alone, so every orientation pattern of a
    class size shares one table.
    """
    half = n // 2
    out = []

    def rec(rest: tuple[int, ...], acc: list[tuple[int, ...]]) -> None:
        if not rest:
            out.append((tuple(sorted(len(b) for b in acc)), tuple(acc)))
            return
        first, others = rest[0], rest[1:]
        for k in (1,) if loop else range(1, len(others) + 1, 2):
            for comp in itertools.combinations(others, k):
                block = (first,) + comp
                if loop or 2 * sum(i < half for i in block) == len(block):
                    acc.append(block)
                    rec(tuple(x for x in others if x not in comp), acc)
                    acc.pop()

    rec(tuple(range(n)), [])
    return tuple(out)


def _link(comps: tuple[int, ...], masks: Iterable[int]) -> tuple[int, ...]:
    """Merge the disjoint circle bitmasks `comps` along each mask of `masks`."""
    for mask in masks:
        merged, rest = mask, []
        for c in comps:
            if c & mask:
                merged |= c
            else:
                rest.append(c)
        comps = tuple(sorted(rest + [merged]))
    return comps


def _tau_counts(
    frame: tuple[tuple[int, ...], tuple[int, ...]], a: Sequence[int]
) -> Counter[tuple[int, ...]]:
    """Multiset of nonzero factor monomials over all connecting groupings,
    for the index partition with restricted growth string a.

    Label j's quotient edge runs from block a[gamma(j)] to block a[j]; labels
    on the same unordered block pair form an edge class. A contributing
    grouping splits every class into admissible blocks, and its blocks must
    link all circles of gamma. Classes are folded in one at a time, keeping
    only the block sizes so far and the circles linked so far.
    """
    succ, circle = frame
    classes: dict[tuple[int, int], list[int]] = {}
    for j, t in enumerate(a):
        s = a[succ[j]]
        classes.setdefault((s, t) if s <= t else (t, s), []).append(j)
    if any(len(labels) % 2 for labels in classes.values()):
        return Counter()
    r = circle[-1] + 1
    states: Counter = Counter({((), tuple(1 << c for c in range(r))): 1})
    for labels in classes.values():
        s0 = a[succ[labels[0]]]
        loop = s0 == a[labels[0]]
        if not loop:
            # Labels along the first label's direction first; a class that
            # runs more often one way than the other admits no grouping.
            ordered = [j for j in labels if a[succ[j]] == s0]
            if 2 * len(ordered) != len(labels):
                return Counter()
            labels = ordered + [j for j in labels if a[succ[j]] != s0]
        options: Counter = Counter()
        for sizes, blocks in _class_groupings(len(labels), loop):
            masks = []
            for block in blocks:
                mask = 0
                for i in block:
                    mask |= 1 << circle[labels[i]]
                if mask & (mask - 1):
                    masks.append(mask)
            options[sizes, _link((), masks)] += 1
        folded: Counter = Counter()
        for (sizes, comps), n in states.items():
            for (more, links), k in options.items():
                folded[tuple(sorted(sizes + more)), _link(comps, links)] += n * k
        states = folded
    out: Counter[tuple[int, ...]] = Counter()
    for (sizes, comps), n in states.items():
        if len(comps) == 1:
            out[sizes] += n
    return out


def moment_oracle(
    orders: Sequence[int], bound: int = DEFAULT_ORACLE_BOUND
) -> BetaPoly:
    """The limit fluctuation moment, straight from its defining sum.

    Index partitions are restricted to the block count that survives the
    limit; every admissible grouping of the matrix-entry factors contributes
    one monomial. Guarded by a total-order capability bound (default 8)
    because the partition scan grows super-exponentially.
    """
    shape = _validate_orders(orders)
    m, r = sum(shape), len(shape)
    if m > bound:
        raise CapabilityError(
            f"oracle supports total order <= {bound} (got {m}); raise `bound` explicitly to override"
        )
    if m % 2:
        return BetaPoly.zero()
    target = m // 2 - r + 2
    if target < 1:
        return BetaPoly.zero()
    frame = _circle_frame(shape)
    acc: Counter[tuple[int, ...]] = Counter()
    for a in _growth_strings(m, target):
        acc.update(_tau_counts(frame, a))
    return BetaPoly(acc)


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


_FINITE_CACHE: dict[tuple[int, ...], dict[int, Counter]] = {}


def _finite_table(shape: tuple[int, ...]) -> dict[int, Counter]:
    """Monomial counts c_k of the tau-sum, summed over the index partitions
    with k blocks, for every k. They do not depend on N."""
    if shape not in _FINITE_CACHE:
        frame = _circle_frame(shape)
        table: dict[int, Counter] = {}
        for a in _growth_strings(sum(shape)):
            counts = _tau_counts(frame, a)
            if counts:
                table.setdefault(max(a) + 1, Counter()).update(counts)
        _FINITE_CACHE[shape] = table
    return _FINITE_CACHE[shape]


def finite_n_moment(
    orders: Sequence[int], N: int, bound: int = DEFAULT_ORACLE_BOUND
) -> BetaPoly:
    """The exact size-N fluctuation moment (no limit taken).

    A polynomial in N: the sum over k of N^(k) * N^(r-2-m/2) * c_k, where
    N^(k) is the falling factorial counting the index assignments of a
    partition with k blocks and c_k is computed once per shape. Valid for
    every integer N >= 1: partitions with more blocks than N get N^(k) = 0,
    which is exactly the right truncation.
    """
    shape = _validate_orders(orders)
    m, r = sum(shape), len(shape)
    if m > bound:
        raise CapabilityError(
            f"finite-N expansion supports total order <= {bound} (got {m})"
        )
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be a positive integer: {N}")
    if m % 2:
        return BetaPoly.zero()
    scale = Fraction(N) ** (r - 2 - m // 2)
    coeffs: Counter = Counter()
    for k, counts in _finite_table(shape).items():
        weight = scale * _falling(N, k)
        for mono, count in counts.items():
            coeffs[mono] += weight * count
    return BetaPoly(coeffs)


# ---------------------------------------------------------------------------
# Closed formula over loop-free pairing elements


def pseudo_cumulant(pp: PartitionedPermutation) -> BetaPoly:
    """Weight of one loop-free pairing element in the closed moment formula.

    Per block with q pairs: 2^(q-1) times (b_{2q}, plus the obstruction-set
    correction when the block is unrelated to every other block).
    """
    if not pp.perm.is_involution_without_fixed_points():
        raise ValueError("pseudo cumulants are defined for pairing elements")
    if not product_membership(pp) or not is_loop_free(pp):
        raise ValueError("element is not in the loop-free pairing class")
    rel = _related_blocks(pp)
    out = BetaPoly.one()
    for block in pp.part.blocks:
        q = len(block) // 2
        base = BetaPoly.beta(2 * q)
        if not rel[block]:
            for obst in obstruction_set(q):
                base += BetaPoly({tuple(sorted(len(d) for d in obst.blocks)): 1})
        out = out * base.scale(2 ** (q - 1))
    return out


def fluctuation_moment(orders: Sequence[int]) -> BetaPoly:
    """The limit fluctuation moment via the closed combinatorial formula."""
    shape = _validate_orders(orders)
    total = BetaPoly.zero()
    for pp in enumerate_ps_nc2_loopfree(shape):
        total += pseudo_cumulant(pp)
    return total


# ---------------------------------------------------------------------------
# Moment-cumulant inversion


_SIGNATURE_CACHE: dict[tuple[int, ...], Counter] = {}


def _block_key_signatures(shape: tuple[int, ...]) -> Counter:
    """Multiset of per-element key signatures of the non-crossing partitioned
    permutations of a shape. A signature is the sorted tuple of block keys,
    each block key being the sorted cycle sizes inside that block.

    Permutations with the same cycle lengths, component labels and block
    count carry the same signatures, so the scan only counts those patterns.
    """
    if shape not in _SIGNATURE_CACHE:
        patterns = Counter(
            (tuple(len(cyc) for cyc in cycles), labels, k)
            for _, cycles, labels, k in _ps_nc_scan(
                shape, itertools.permutations(range(1, sum(shape) + 1))
            )
        )
        acc: Counter = Counter()
        for pattern, count in patterns.items():
            for sig, n in _grouping_signatures(*pattern):
                acc[sig] += count * n
        _SIGNATURE_CACHE[shape] = acc
    return _SIGNATURE_CACHE[shape]


@lru_cache(maxsize=None)
def _grouping_signatures(
    lengths: tuple[int, ...], labels: tuple[int, ...], k: int
) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
    """(signature, count) over the members of one permutation, given its
    cycle lengths, component labels and required block count."""
    acc: Counter = Counter()
    for rgs in _connecting_groupings(labels, k):
        sizes: list[list[int]] = [[] for _ in range(k)]
        for length, b in zip(lengths, rgs):
            sizes[b].append(length)
        acc[tuple(sorted(tuple(sorted(v)) for v in sizes))] += 1
    return tuple(acc.items())


_KAPPA_CACHE: dict[tuple[int, ...], BetaPoly] = {}


def _kappa(key: tuple[int, ...]) -> BetaPoly:
    key = tuple(sorted(key))
    if key not in _KAPPA_CACHE:
        total = fluctuation_moment(key)
        target = (key,)
        for sig, count in sorted(_block_key_signatures(key).items()):
            mult = count - 1 if sig == target else count
            if not mult:
                continue
            term = BetaPoly.const(mult)
            for sub in sig:
                term = term * _kappa(sub)
            total = total - term
        _KAPPA_CACHE[key] = total
    return _KAPPA_CACHE[key]


MAX_CUMULANT_PARTS = 4
MAX_CUMULANT_ORDER = 8


def free_cumulant(orders: Sequence[int]) -> BetaPoly:
    """One entry of the fluctuation-cumulant table (arguments reordered to
    the canonical sorted key)."""
    key = tuple(sorted(_validate_orders(orders)))
    if len(key) > MAX_CUMULANT_PARTS:
        raise CapabilityError(
            f"cumulants are established only up to {MAX_CUMULANT_PARTS} arguments (got {len(key)})"
        )
    if sum(key) > MAX_CUMULANT_ORDER:
        raise CapabilityError(
            f"cumulants are supported up to total order {MAX_CUMULANT_ORDER} (got {sum(key)})"
        )
    return _kappa(key)


def _ascending_partitions(total: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    def rec(remaining: int, minimum: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        if len(acc) == max_parts:
            return
        for part in range(minimum, remaining + 1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()

    yield from rec(total, 1, [])


def free_cumulants(
    max_r: int = MAX_CUMULANT_PARTS, max_order: int = MAX_CUMULANT_ORDER
) -> CumulantTable:
    """The full table of fluctuation cumulants with at most max_r arguments
    and total order at most max_order, keyed by sorted argument tuples."""
    if max_r < 1 or max_order < 1:
        raise ValueError("bounds must be positive")
    if max_r > MAX_CUMULANT_PARTS:
        raise CapabilityError(
            f"cumulants are established only up to order {MAX_CUMULANT_PARTS} "
            f"in the number of arguments (got {max_r})"
        )
    if max_order > MAX_CUMULANT_ORDER:
        raise CapabilityError(
            f"cumulants are supported up to total order {MAX_CUMULANT_ORDER} (got {max_order})"
        )
    table: CumulantTable = {}
    for total in range(1, max_order + 1):
        for key in _ascending_partitions(total, max_r):
            table[key] = _kappa(key)
    return table
