import json
import pathlib
from collections import Counter
from fractions import Fraction

import pytest
from cumulant_oracle import closed_form_cumulant

from wignerfluct.betapoly import BetaPoly
from wignerfluct.errors import CapabilityError
from wignerfluct.moments import (
    _block_key_signatures,
    finite_n_moment,
    fluctuation_moment,
    free_cumulant,
    free_cumulants,
    k_tau_pi,
    moment_oracle,
    pseudo_cumulant,
)
from wignerfluct.partitioned import PartitionedPermutation, enumerate_ps_nc
from wignerfluct.permutations import Permutation
from wignerfluct.setpartitions import SetPartition

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _pp(part: str, cycles, shape) -> PartitionedPermutation:
    return PartitionedPermutation(
        SetPartition.parse(part), Permutation.from_cycles(sum(shape), cycles), shape
    )


# --- entry-cumulant factors -------------------------------------------------


def test_k_tau_pi_loop_classes():
    full2 = SetPartition.full((1, 2))
    assert k_tau_pi((1, 1), full2, full2) == BetaPoly.beta(2)
    # Singletons vanish.
    assert k_tau_pi((1, 1), SetPartition.parse("{1},{2}"), full2).is_zero()
    # Four diagonal legs glued into one factor vanish: a loop class only
    # supports pair blocks.
    full4 = SetPartition.full(range(1, 5))
    assert k_tau_pi((1, 1, 1, 1), full4, full4).is_zero()


def test_k_tau_pi_orientation():
    pi = SetPartition.parse("{1,3},{2,4}")
    assert k_tau_pi((2, 2), SetPartition.full(range(1, 5)), pi) == BetaPoly.beta(4)
    assert k_tau_pi((2, 2), SetPartition.parse("{1,2},{3,4}"), pi) == BetaPoly(
        {(2, 2): 1}
    )
    # Two transposed copies of the same entry in one factor: unbalanced.
    assert k_tau_pi((2, 2), SetPartition.parse("{1,3},{2,4}"), pi).is_zero()


def test_k_tau_pi_straddling_classes():
    pi = SetPartition.parse("{1,2},{3,4}")
    assert k_tau_pi((2, 2), SetPartition.parse("{1,3},{2,4}"), pi).is_zero()


def test_k_tau_pi_validation():
    with pytest.raises(ValueError):
        k_tau_pi((2, 2), SetPartition.parse("{1,2}"), SetPartition.full(range(1, 5)))
    with pytest.raises(ValueError):
        k_tau_pi((2, 2), SetPartition.full(range(1, 5)), SetPartition.parse("{1,2}"))


# --- limit moments ----------------------------------------------------------


ANCHORS = {
    (1, 1): "b2",
    (2, 2): "2*b4 + 2*b2^2",
    (4,): "2*b2^2",
    (1, 3): "3*b2^2",
    (1, 1, 2): "2*b2^2",
    (1, 1, 1, 1): "0",
    (2, 2, 2): "4*b6 + 24*b2*b4 + 8*b2^3",
    (3, 3): "12*b2^3",
    (2, 4): "8*b2*b4 + 8*b2^3",
    (6,): "5*b2^3",
}


def test_moment_anchors():
    for orders, want in ANCHORS.items():
        assert str(fluctuation_moment(orders)) == want, orders


def test_odd_total_vanishes():
    assert fluctuation_moment((3,)).is_zero()
    assert fluctuation_moment((1, 2)).is_zero()
    assert fluctuation_moment((1, 1, 3)).is_zero()


def test_moments_are_symmetric_in_orders():
    assert fluctuation_moment((1, 3)) == fluctuation_moment((3, 1))
    assert fluctuation_moment((1, 1, 2)) == fluctuation_moment((2, 1, 1))
    assert fluctuation_moment((2, 4)) == fluctuation_moment((4, 2))


def test_moment_validation():
    with pytest.raises(ValueError):
        fluctuation_moment(())
    with pytest.raises(ValueError):
        fluctuation_moment((0, 2))


def test_oracle_agrees_with_closed_formula():
    shapes = [
        (2,),
        (1, 1),
        (4,),
        (1, 3),
        (3, 1),
        (2, 2),
        (1, 1, 2),
        (2, 1, 1),
        (6,),
        (2, 4),
        (3, 3),
        (2, 2, 2),
        (1, 1, 1, 1),
        (1, 1, 4),
        (1, 2, 3),
    ]
    for shape in shapes:
        assert moment_oracle(shape) == fluctuation_moment(shape), shape


def test_oracle_capability_bound():
    with pytest.raises(CapabilityError):
        moment_oracle((10,))
    # Overriding the bound is allowed; an odd total short-circuits to zero.
    assert moment_oracle((9,), bound=9).is_zero()


# --- finite size ------------------------------------------------------------


def test_finite_n_second_order_is_exact():
    for N in (1, 2, 5, 100):
        assert finite_n_moment((2,), N) == BetaPoly.beta(2)


def test_finite_n_two_by_two():
    got = finite_n_moment((2, 2), 10)
    assert got == BetaPoly({(4,): Fraction(9, 5), (2, 2): 2})
    # The deviation from the limit is exactly -2 b4 / N, with nothing smaller.
    for N in (1, 3, 7):
        diff = finite_n_moment((2, 2), N) - fluctuation_moment((2, 2))
        assert diff == BetaPoly({(4,): Fraction(-2, N)})


def test_finite_n_fourth_moment():
    # One circle of length four: b4 and b2^2 corrections both at order 1/N^2.
    assert finite_n_moment((4,), 3) == BetaPoly(
        {(4,): Fraction(2, 9), (2, 2): Fraction(19, 9)}
    )
    assert finite_n_moment((1, 3), 4) == BetaPoly({(2, 2): 3})


def test_finite_n_converges_to_limit():
    for shape in [(2, 2), (4,), (1, 1, 2), (2, 2, 2)]:
        limit = fluctuation_moment(shape)
        big = finite_n_moment(shape, 10**6)
        assign = {2: 1.0, 4: 1.0, 6: 1.0, 8: 1.0}
        assert abs(big.evaluate(assign) - limit.evaluate(assign)) < 1e-4


def test_finite_n_validation():
    with pytest.raises(ValueError):
        finite_n_moment((2, 2), 0)
    with pytest.raises(ValueError):
        finite_n_moment((2, 2), 2.5)
    with pytest.raises(CapabilityError):
        finite_n_moment((10,), 5)


# --- pseudo cumulants -------------------------------------------------------


def test_pseudo_cumulant_two_circles():
    spread = _pp("{1,3},{2,4}", [(1, 3), (2, 4)], (2, 2))
    assert pseudo_cumulant(spread) == BetaPoly({(2, 2): 1})
    merged = _pp("{1,2,3,4}", [(1, 2), (3, 4)], (2, 2))
    assert pseudo_cumulant(merged) == BetaPoly({(4,): 2})


def test_pseudo_cumulant_unrelated_block_correction():
    # Four pairs merged into a single unrelated block pick up the
    # obstruction-set monomials next to b8.
    big = _pp(
        "{1,2,3,4,5,6,7,8}",
        [(1, 2), (3, 4), (5, 6), (7, 8)],
        (2, 2, 2, 2),
    )
    assert pseudo_cumulant(big) == BetaPoly({(8,): 8, (4, 4): 24})


def test_pseudo_cumulant_validation():
    with pytest.raises(ValueError):
        pseudo_cumulant(_pp("{1,2,3}", [(1, 2, 3)], (3,)))
    with pytest.raises(ValueError):
        pseudo_cumulant(_pp("{1,2,3,4}", [(1, 3), (2, 4)], (2, 2)))
    glued = _pp("{1,2,3,4}", [(1, 2), (3, 4)], (1, 1, 1, 1))
    with pytest.raises(ValueError):
        pseudo_cumulant(glued)


# --- cumulant table ---------------------------------------------------------


def test_cumulant_rows_match_golden():
    rows = json.loads((GOLDEN / "cumulant_rows.json").read_text())
    for key_str, want in rows.items():
        key = tuple(int(x) for x in key_str.split(","))
        assert str(free_cumulant(key)) == want, key_str


def test_cumulant_table_matches_closed_form():
    table = free_cumulants(4, 8)
    assert len(table) == 52
    for key, poly in table.items():
        assert poly == closed_form_cumulant(key), key


def test_cumulant_arguments_are_sorted_internally():
    assert free_cumulant((2, 1, 1)) == free_cumulant((1, 1, 2))
    assert str(free_cumulant((2, 1, 1))) == "-2*b4"


def test_cumulant_capability_bounds():
    with pytest.raises(CapabilityError):
        free_cumulant((2, 2, 2, 2, 2))
    with pytest.raises(CapabilityError):
        free_cumulant((4, 6))
    with pytest.raises(CapabilityError):
        free_cumulants(max_r=5)
    with pytest.raises(CapabilityError):
        free_cumulants(max_order=9)
    with pytest.raises(ValueError):
        free_cumulants(max_r=0)


def test_block_key_signatures_match_members():
    keys = list(free_cumulants(4, 7)) + [(2, 2, 2, 2)]
    for key in keys:
        want: Counter = Counter()
        for pp in enumerate_ps_nc(key):
            sizes: dict[tuple[int, ...], list[int]] = {}
            for cyc in pp.perm.cycles():
                sizes.setdefault(pp.part.block_of(cyc[0]), []).append(len(cyc))
            want[tuple(sorted(tuple(sorted(v)) for v in sizes.values()))] += 1
        assert _block_key_signatures(key) == want, key


def test_moment_cumulant_roundtrip():
    # Summing block-wise cumulant products over all non-crossing partitioned
    # permutations must reproduce the moment.
    for shape in [(2,), (1, 1), (2, 2), (4,), (1, 1, 2), (2, 2, 2)]:
        total = BetaPoly.zero()
        for pp in enumerate_ps_nc(shape):
            term = BetaPoly.one()
            for block in pp.part.blocks:
                sizes = sorted(
                    len(cyc)
                    for cyc in pp.perm.cycles()
                    if pp.part.block_of(cyc[0]) == block
                )
                term = term * free_cumulant(tuple(sizes))
            total += term
        assert total == fluctuation_moment(shape), shape
