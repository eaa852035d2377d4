from collections import Counter

import pytest

from wignerfluct.partitioned import (
    ZERO,
    PartitionedPermutation,
    enumerate_ps_nc,
    enumerate_ps_nc2,
    enumerate_ps_nc2_loopfree,
    enumerate_ps_nc21,
    gamma_graph,
    is_loop_free,
    is_maximal,
    is_nc_partitioned_perm,
    loop_pairs,
    pp_product,
    product_membership,
    related_blocks,
)
from wignerfluct.permutations import Permutation, enumerate_permutations
from wignerfluct.setpartitions import SetPartition, enumerate_partitions

CATALAN = [1, 1, 2, 5, 14, 42, 132]


def pp(part: str, cycles, shape) -> PartitionedPermutation:
    m = sum(shape)
    return PartitionedPermutation(
        SetPartition.parse(part), Permutation.from_cycles(m, cycles), shape
    )


def test_validation():
    with pytest.raises(ValueError):
        pp("{1,2},{3,4}", [(1, 2)], (2,))  # partition too wide
    with pytest.raises(ValueError):
        PartitionedPermutation(
            SetPartition.parse("{1,2}"), Permutation.from_cycles(4, [(1, 2)]), (2, 2)
        )
    with pytest.raises(ValueError):
        pp("{1,3},{2,4}", [(1, 2)], (2, 2))  # cycle straddles blocks


def test_length():
    assert pp("{1,3},{2,4}", [(1, 3), (2, 4)], (2, 2)).length() == 2
    assert pp("{1,2,3,4}", [(1, 2), (3, 4)], (2, 2)).length() == 4
    assert pp("{1},{2},{3},{4}", [], (2, 2)).length() == 0


def test_product_additive_case():
    a = pp("{1,3},{2,4}", [(1, 3), (2, 4)], (2, 2))
    b = pp("{1,4},{2,3}", [(1, 4), (2, 3)], (2, 2))
    out = pp_product(a, b)
    assert out is not ZERO
    assert out.part == SetPartition.full(range(1, 5))
    assert out.perm == Permutation.from_cycles(4, [(1, 2), (3, 4)])
    assert out.length() == a.length() + b.length()


def test_product_zero_case():
    # Inflating the partition wastes length, so multiplying by the
    # complementary factor cannot stay additive.
    a = pp("{1,2,3,4}", [(1, 3), (2, 4)], (2, 2))
    b = pp("{1,4},{2,3}", [(1, 4), (2, 3)], (2, 2))
    assert pp_product(a, b) is ZERO
    with pytest.raises(ValueError):
        pp_product(a, pp("{1,2}", [(1, 2)], (2,)))
    assert repr(ZERO) == "ZERO"


def test_membership_anchors():
    assert product_membership(pp("{1,3},{2,4}", [(1, 3), (2, 4)], (2, 2)))
    assert product_membership(pp("{1,4},{2,3}", [(1, 4), (2, 3)], (2, 2)))
    assert product_membership(pp("{1,2,3,4}", [(1, 2), (3, 4)], (2, 2)))
    # Right length but disconnected from the second circle:
    assert not product_membership(pp("{1,2},{3,4}", [(1, 2), (3, 4)], (2, 2)))
    # Oversized block:
    assert not product_membership(pp("{1,2,3,4}", [(1, 3), (2, 4)], (2, 2)))


def test_tree_route_matches_product_route_exhaustively():
    for shape in [(1,), (2,), (1, 1), (3,), (2, 2), (4,), (1, 1, 2), (5,)]:
        m = sum(shape)
        for perm in enumerate_permutations(m):
            cycles = perm.cycles()
            for grouping in enumerate_partitions(len(cycles)):
                part = SetPartition(
                    [
                        sorted(x for ci in grp for x in cycles[ci - 1])
                        for grp in grouping.blocks
                    ]
                )
                cand = PartitionedPermutation(part, perm, shape)
                assert is_nc_partitioned_perm(cand) == product_membership(cand), str(
                    cand
                )


def test_gamma_graph_requires_annular_noncrossing():
    crossing = pp("{1,3},{2,4}", [(1, 3), (2, 4)], (4,))
    with pytest.raises(ValueError):
        gamma_graph(crossing)
    tree = gamma_graph(pp("{1,3},{2,4}", [(1, 3), (2, 4)], (2, 2)))
    assert tree.is_tree()


def test_disc_counts_are_catalan():
    for m in range(1, 7):
        assert sum(1 for _ in enumerate_ps_nc((m,))) == CATALAN[m]


def _weakly_decreasing_shapes(max_total: int):
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    for total in range(1, max_total + 1):
        yield from rec(total, total)


def _reference_ps_nc(shape):
    """Every coarsening of every permutation's cycles, in lexicographic
    permutation order, filtered by the defining product identity."""
    out = []
    for perm in enumerate_permutations(sum(shape)):
        cycles = perm.cycles()
        for grouping in enumerate_partitions(len(cycles)):
            part = SetPartition(
                [
                    [x for ci in grp for x in cycles[ci - 1]]
                    for grp in grouping.blocks
                ]
            )
            cand = PartitionedPermutation(part, perm, shape)
            if product_membership(cand):
                out.append(cand)
    return out


def test_enumerations_match_membership_scan():
    for shape in _weakly_decreasing_shapes(6):
        want = _reference_ps_nc(shape)
        assert list(enumerate_ps_nc(shape)) == want, shape
        want21 = [
            pp for pp in want if all(len(c) <= 2 for c in pp.perm.cycles())
        ]
        assert list(enumerate_ps_nc21(shape)) == want21, shape
        want2 = [pp for pp in want if pp.perm.is_involution_without_fixed_points()]
        assert list(enumerate_ps_nc2(shape)) == want2, shape


def test_enumeration_chain():
    for shape in [(2,), (1, 1), (2, 2), (4,), (1, 1, 2)]:
        nc = set(enumerate_ps_nc(shape))
        nc21 = set(enumerate_ps_nc21(shape))
        nc2 = set(enumerate_ps_nc2(shape))
        lf = set(enumerate_ps_nc2_loopfree(shape))
        assert lf <= nc2 <= nc21 <= nc
        for member in nc:
            assert product_membership(member)
            assert is_nc_partitioned_perm(member)
        for member in nc2:
            assert member.perm.is_involution_without_fixed_points()


def test_two_circle_pairing_members():
    got = set(enumerate_ps_nc2((2, 2)))
    want = {
        pp("{1,3},{2,4}", [(1, 3), (2, 4)], (2, 2)),
        pp("{1,4},{2,3}", [(1, 4), (2, 3)], (2, 2)),
        pp("{1,2,3,4}", [(1, 2), (3, 4)], (2, 2)),
    }
    assert got == want
    assert set(enumerate_ps_nc2_loopfree((2, 2))) == want


def test_one_circle_loopfree_is_singleton():
    assert list(enumerate_ps_nc2_loopfree((2,))) == [
        pp("{1,2}", [(1, 2)], (2,))
    ]


def test_loop_pairs():
    assert loop_pairs(Permutation.from_cycles(2, [(1, 2)]), (1, 1)) == ((1, 2),)
    assert loop_pairs(Permutation.from_cycles(2, [(1, 2)]), (2,)) == ()
    # A crossing pairing on one circle turns both pairs into loops.
    assert loop_pairs(Permutation.from_cycles(4, [(1, 3), (2, 4)]), (4,)) == (
        (1, 3),
        (2, 4),
    )


def test_is_loop_free():
    single = pp("{1,2}", [(1, 2)], (1, 1))
    assert is_loop_free(single)
    # Merge the loop pair with nothing else on a bigger shape: the loop pair
    # must stand alone, so gluing it to another pair breaks loop-freeness.
    glued = pp("{1,2,3,4}", [(1, 2), (3, 4)], (1, 1, 1, 1))
    assert not is_loop_free(glued)
    apart = pp("{1,2},{3,4}", [(1, 2), (3, 4)], (1, 1, 1, 1))
    assert is_loop_free(apart)


def test_related_blocks_anchor():
    spread = pp("{1,3},{2,4}", [(1, 3), (2, 4)], (2, 2))
    rel = related_blocks(spread)
    assert rel == {(1, 3): ((2, 4),), (2, 4): ((1, 3),)}
    assert not is_maximal(spread)
    merged = pp("{1,2,3,4}", [(1, 2), (3, 4)], (2, 2))
    assert related_blocks(merged) == {(1, 2, 3, 4): ()}
    assert is_maximal(merged)


def test_related_blocks_validation():
    with pytest.raises(ValueError):
        related_blocks(pp("{1,2,3}", [(1, 2, 3)], (3,)))  # not a pairing
    with pytest.raises(ValueError):
        related_blocks(pp("{1,2,3,4}", [(1, 3), (2, 4)], (2, 2)))  # not a member


def test_relatedness_is_symmetric():
    for shape in [(2, 2), (1, 1, 2), (2, 2, 2)]:
        for member in enumerate_ps_nc2(shape):
            rel = related_blocks(member)
            for block, others in rel.items():
                for other in others:
                    assert block in rel[other]


def test_four_circle_maximality_census():
    # Among loop-free pairing members of four 2-circles, only the fully
    # merged element has an unrelated block.
    census = Counter()
    maximal = []
    for member in enumerate_ps_nc2_loopfree((2, 2, 2, 2)):
        census[member.part.num_blocks()] += 1
        if is_maximal(member):
            maximal.append(member)
    assert census == Counter({1: 1, 2: 48, 3: 144, 4: 48})
    assert len(maximal) == 1
    assert maximal[0].part == SetPartition.full(range(1, 9))
