"""Labeled directed multigraphs attached to index permutations.

The base graph of a shape has one vertex per position 1..m and, for each
label j, one edge from gamma(j) to j. Identifying vertices along a partition
of the positions gives the quotient graph whose edge classes, loops, and
orientation balance drive all vanishing arguments; bipartite block graphs
built on top of pairings carry the tree tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .annular import NC, NC_NONCONNECTING, classify_relative, gamma_of
from .errors import check_limit
from .permutations import Permutation
from .setpartitions import SetPartition, enumerate_partitions
from .unionfind import UnionFind

Shape = tuple[int, ...]
Edge = tuple[int, Hashable, Hashable]  # (label, src, trg)


@dataclass(frozen=True)
class LabeledDigraph:
    vertices: tuple[Hashable, ...]
    edges: tuple[Edge, ...]

    def n_vertices(self) -> int:
        return len(self.vertices)

    def n_edges(self) -> int:
        return len(self.edges)

    def loop_labels(self) -> tuple[int, ...]:
        return tuple(label for label, src, trg in self.edges if src == trg)

    def components(self) -> tuple[frozenset[Hashable], ...]:
        index = {v: i for i, v in enumerate(self.vertices)}
        uf = UnionFind(range(len(self.vertices)))
        for _, src, trg in self.edges:
            uf.union(index[src], index[trg])
        return tuple(
            frozenset(self.vertices[i] for i in grp) for grp in uf.groups()
        )

    def is_tree(self) -> bool:
        """Connected with exactly #vertices - 1 edges (multi-edges count)."""
        if not self.vertices:
            return False
        return len(self.components()) == 1 and self.n_edges() == self.n_vertices() - 1

    def elementarize(self) -> "LabeledDigraph":
        """Forget orientation and multiplicity: drop loops, keep one edge per
        unordered vertex pair (the one with the smallest label)."""
        chosen: dict[frozenset[Hashable], Edge] = {}
        for edge in sorted(self.edges):
            label, src, trg = edge
            if src == trg:
                continue
            chosen.setdefault(frozenset((src, trg)), edge)
        return LabeledDigraph(self.vertices, tuple(sorted(chosen.values())))

    def to_text(self) -> str:
        """Plain-text dump: a 'digraph' header, then one 'label src trg' line
        per edge in label order."""
        lines = ["digraph"]
        for label, src, trg in sorted(self.edges):
            lines.append(f"{label} {src} {trg}")
        return "\n".join(lines) + "\n"


def build_t(shape: Sequence[int]) -> LabeledDigraph:
    """The base graph: vertices 1..m, one edge per label j from gamma(j) to j.

    >>> build_t((2,)).edges
    ((1, 2, 1), (2, 1, 2))
    """
    g = gamma_of(shape)
    m = g.n
    return LabeledDigraph(
        tuple(range(1, m + 1)),
        tuple((j, g(j), j) for j in range(1, m + 1)),
    )


def quotient(graph: LabeledDigraph, part: SetPartition) -> LabeledDigraph:
    """Identify vertices along the partition; blocks are named by minima."""
    if part.ground() != set(graph.vertices):
        raise ValueError("partition must cover exactly the vertex set")
    name = {x: b[0] for b in part.blocks for x in b}
    return LabeledDigraph(
        tuple(sorted({name[v] for v in graph.vertices})),
        tuple((label, name[src], name[trg]) for label, src, trg in graph.edges),
    )


def edge_classes(graph: LabeledDigraph) -> SetPartition:
    """Partition of the edge labels by unordered endpoint pair."""
    buckets: dict[frozenset[Hashable], list[int]] = {}
    for label, src, trg in graph.edges:
        buckets.setdefault(frozenset((src, trg)), []).append(label)
    return SetPartition(buckets.values())


def orientation_balance(graph: LabeledDigraph, labels: Iterable[int]) -> bool:
    """Whether the given edges traverse their common vertex pair equally often
    in each direction. All labels must lie in one edge class; loop classes are
    vacuously balanced (their admissibility is decided elsewhere).
    """
    labels = set(labels)
    edges = [e for e in graph.edges if e[0] in labels]
    if len(edges) != len(labels):
        raise ValueError("unknown edge label")
    pairs = {frozenset((src, trg)) for _, src, trg in edges}
    if len(pairs) > 1:
        raise ValueError(f"labels span several edge classes: {sorted(labels)}")
    if not edges or edges[0][1] == edges[0][2]:
        return True
    anchor = edges[0][1]
    forward = sum(1 for _, src, _ in edges if src == anchor)
    return 2 * forward == len(edges)


def pi_bar(shape: Sequence[int], pi: SetPartition) -> SetPartition:
    """Edge classes of the quotient of the base graph by pi."""
    return edge_classes(quotient(build_t(shape), pi))


def block_bipartite(
    cycles: Sequence[Sequence[int]],
    coarse: SetPartition,
    components: SetPartition,
) -> LabeledDigraph:
    """Bipartite graph: one white vertex per component block, one black vertex
    per coarse block, and one edge per cycle joining the component containing
    it to the coarse block containing it.

    Each cycle must lie inside a single block on both sides.
    """
    white = tuple(("w", b[0]) for b in components.blocks)
    black = tuple(("b", b[0]) for b in coarse.blocks)
    edges = []
    for cyc in cycles:
        wblock = components.block_of(cyc[0])
        bblock = coarse.block_of(cyc[0])
        if any(components.block_of(x) != wblock or coarse.block_of(x) != bblock for x in cyc):
            raise ValueError(f"cycle {tuple(cyc)} straddles blocks")
        edges.append((min(cyc), ("w", wblock[0]), ("b", bblock[0])))
    return LabeledDigraph(white + black, tuple(sorted(edges)))


def bipartite_g_tau(graph: LabeledDigraph, tau: SetPartition) -> LabeledDigraph:
    """Bipartite graph of a quotient graph against a grouping of its edge
    classes: white vertices are the connected components, black vertices the
    blocks of tau (a partition of edge-class representatives resp. labels),
    with one edge per edge class."""
    classes = edge_classes(graph)
    if tau.ground() != classes.ground():
        raise ValueError("tau must partition the edge labels")
    for cls in classes.blocks:
        if len({tau.block_of(x) for x in cls}) != 1:
            raise ValueError("tau must be a coarsening of the edge classes")
    comp_of: dict[Hashable, int] = {}
    for i, comp in enumerate(graph.components()):
        for v in comp:
            comp_of[v] = i
    white = tuple(("w", i) for i in range(len(graph.components())))
    black = tuple(("b", b[0]) for b in tau.blocks)
    by_label = {label: (src, trg) for label, src, trg in graph.edges}
    edges = []
    for cls in classes.blocks:
        src, _ = by_label[cls[0]]
        edges.append((cls[0], ("w", comp_of[src]), ("b", tau.block_of(cls[0])[0])))
    return LabeledDigraph(white + black, tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# Obstruction sets


def _parity_gamma(n: int) -> Permutation:
    return gamma_of((2,) * n)


def _is_parity_respecting(tau: SetPartition) -> bool:
    return all(
        sum(1 for x in b if x % 2 == 1) * 2 == len(b) for b in tau.blocks
    )


def admits_ncpp(tau: SetPartition) -> bool:
    """Whether some odd-even pairing inside the blocks of tau makes the
    bipartite block graph against (1,2)(3,4)... a tree.

    tau must be a parity-respecting partition of {1..2n} whose join with the
    consecutive-pairs partition is everything.
    """
    ground = sorted(tau.ground())
    n2 = len(ground)
    if n2 % 2 or ground != list(range(1, n2 + 1)):
        raise ValueError("tau must partition 1..2n")
    if not _is_parity_respecting(tau):
        raise ValueError(f"blocks must balance odd and even elements: {tau}")
    gamma = _parity_gamma(n2 // 2)
    gpart = gamma.cycle_partition()
    if tau.join(gpart).num_blocks() != 1:
        raise ValueError("tau must connect all consecutive pairs")

    blocks = list(tau.blocks)

    def rec(bi: int, acc: list[tuple[int, int]]) -> bool:
        if bi == len(blocks):
            sigma = Permutation.from_pairing(SetPartition(acc))
            comps = sigma.cycle_partition().join(gpart)
            return block_bipartite(sigma.cycles(), tau, comps).is_tree()
        odds = [x for x in blocks[bi] if x % 2 == 1]
        evens = [x for x in blocks[bi] if x % 2 == 0]
        for perm in itertools.permutations(evens):
            acc2 = acc + list(zip(odds, perm))
            if rec(bi + 1, acc2):
                return True
        return False

    return rec(0, [])


_OBSTRUCTION_CACHE: dict[int, tuple[SetPartition, ...]] = {}


def obstruction_set(n: int) -> tuple[SetPartition, ...]:
    """All parity-respecting, connecting partitions of {1..2n} that admit no
    tree pairing. Empty for n <= 3; exactly three members for n = 4.

    Bounded by LIMITS["obstruction set n"]: it scans all partitions of 2n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_limit("obstruction set n", n)
    if n not in _OBSTRUCTION_CACHE:
        gamma = _parity_gamma(n)
        gpart = gamma.cycle_partition()
        found = []
        for tau in enumerate_partitions(2 * n):
            if not _is_parity_respecting(tau):
                continue
            if tau.join(gpart).num_blocks() != 1:
                continue
            if not admits_ncpp(tau):
                found.append(tau)
        _OBSTRUCTION_CACHE[n] = tuple(found)
    return _OBSTRUCTION_CACHE[n]


# ---------------------------------------------------------------------------
# Limit-triple structure conditions


def _check_triple_preconditions(
    shape: Sequence[int],
    sigma: Permutation,
    tau: SetPartition,
    pi: SetPartition,
) -> tuple[Permutation, SetPartition]:
    g = gamma_of(shape)
    m = g.n
    ground = set(range(1, m + 1))
    if sigma.n != m:
        raise ValueError(f"sigma acts on {sigma.n} points, shape needs {m}")
    if not sigma.is_involution_without_fixed_points():
        raise ValueError("sigma must be a fixed-point-free involution")
    if tau.ground() != ground or pi.ground() != ground:
        raise ValueError("tau and pi must partition 1..m")
    for a, b in sigma.cycles():
        if not tau.same_block(a, b):
            raise ValueError(f"pair ({a},{b}) of sigma straddles blocks of tau")
    classes = pi_bar(shape, pi)
    for block in tau.blocks:
        if len({classes.block_of(x) for x in block}) != 1:
            raise ValueError(f"block {block} of tau straddles edge classes")
    return g, classes


def limit_conditions(
    shape: Sequence[int],
    sigma: Permutation,
    tau: SetPartition,
    pi: SetPartition,
) -> dict[str, bool]:
    """The structural equality conditions for a (pi, tau, sigma) triple.

    Requires sigma to be a pairing refining tau, and tau to refine the edge
    classes of the quotient graph of pi. Returns the five booleans
    L1, L2, L3, L4, L4prime described below:

    * L1 — sigma is annular non-crossing (connected or not) for the shape;
    * L2 — on each orbit of the group generated by sigma and gamma, pi agrees
      with the cycles of gamma*sigma;
    * L3 — loop pairs in distinct orbits share an edge class exactly when a
      non-loop witness pair connects the same quotient vertices and one of
      those classes' endpoints swallows both orbits;
    * L4 — the bipartite block graph, after fusing tau-blocks that share a
      non-loop edge class and forgetting multiplicities, is a tree;
    * L4prime — the raw bipartite block graph is already a tree.
    """
    g, classes = _check_triple_preconditions(shape, sigma, tau, pi)
    orbits = (g * sigma).cycle_partition()
    comps = sigma.cycle_partition().join(g.cycle_partition())

    l1 = classify_relative(sigma, g) in (NC, NC_NONCONNECTING)

    l2 = all(
        pi.restrict(block) == orbits.restrict(block) for block in comps.blocks
    )

    loop_class_reps = {
        classes.block_of(lab)[0]
        for lab in quotient(build_t(shape), pi).loop_labels()
    }

    l3 = _loop_pair_condition(g, sigma, pi, orbits, comps, classes)

    merged = _fuse_tau_blocks(tau, classes, loop_class_reps)
    l4 = (
        block_bipartite(sigma.cycles(), merged, comps)
        .elementarize()
        .is_tree()
    )
    l4prime = block_bipartite(sigma.cycles(), tau, comps).is_tree()

    return {"L1": l1, "L2": l2, "L3": l3, "L4": l4, "L4prime": l4prime}


def _fuse_tau_blocks(
    tau: SetPartition, classes: SetPartition, loop_class_reps: set[int]
) -> SetPartition:
    """Merge tau-blocks sharing an edge class, except inside loop classes."""
    ground = sorted(tau.ground())
    uf = UnionFind(ground)
    for block in tau.blocks:
        for x in block[1:]:
            uf.union(block[0], x)
    anchor: dict[int, int] = {}
    for block in tau.blocks:
        rep = classes.block_of(block[0])[0]
        if rep in loop_class_reps:
            continue
        if rep in anchor:
            uf.union(anchor[rep], block[0])
        else:
            anchor[rep] = block[0]
    return SetPartition(uf.groups())


def _loop_pair_condition(
    g: Permutation,
    sigma: Permutation,
    pi: SetPartition,
    orbits: SetPartition,
    comps: SetPartition,
    classes: SetPartition,
) -> bool:
    """Loop pairs living in distinct components must share an edge class
    exactly when a pair of non-loop witness labels ties them together."""
    loops = [cyc for cyc in sigma.cycles() if orbits.same_block(cyc[0], cyc[1])]
    if len(loops) < 2:
        return True
    # Labels whose edge in the orbit quotient joins two distinct orbits.
    nonloop = [u for u in sorted(pi.ground()) if not orbits.same_block(u, g(u))]
    for b1, b2 in itertools.combinations(loops, 2):
        if comps.same_block(b1[0], b2[0]):
            continue
        lhs = classes.same_block(b1[0], b2[0])
        rhs = _tied_by_witness(g, pi, orbits, nonloop, b1, b2)
        if lhs != rhs:
            return False
    return True


def _tied_by_witness(
    g: Permutation,
    pi: SetPartition,
    orbits: SetPartition,
    nonloop: list[int],
    b1: tuple[int, ...],
    b2: tuple[int, ...],
) -> bool:
    o1 = set(orbits.block_of(b1[0]))
    o2 = set(orbits.block_of(b2[0]))
    target = o1 | o2
    cands1 = [u for u in nonloop if u in o1 or g(u) in o1]
    cands2 = [u for u in nonloop if u in o2 or g(u) in o2]
    for u1 in cands1:
        ends1 = {pi.block_of(u1), pi.block_of(g(u1))}
        if not any(target <= set(blk) for blk in ends1):
            continue
        for u2 in cands2:
            if ends1 == {pi.block_of(u2), pi.block_of(g(u2))}:
                return True
    return False
