import math

import numpy as np
import pytest

from wignerfluct import montecarlo
from wignerfluct.errors import LIMITS, CapabilityError
from wignerfluct.moments import finite_n_moment
from wignerfluct.montecarlo import (
    EntryLaw,
    _sample_batch,
    _trace_powers,
    beta_assignment,
    beta_of,
    empirical_fluctuation,
    parse_law,
    plugin_joint_cumulant,
    sample,
)
from wignerfluct.setpartitions import enumerate_partitions

LAWS = [
    EntryLaw.gue(),
    EntryLaw.fixed_modulus(1.3),
    EntryLaw.two_point(0.5, 1.5, 0.3),
]


def test_law_validation():
    with pytest.raises(ValueError):
        EntryLaw("complex-gaussian", (1.0,))
    with pytest.raises(ValueError):
        EntryLaw.fixed_modulus(-1.0)
    with pytest.raises(ValueError):
        EntryLaw.two_point(1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        EntryLaw("bernoulli")


def test_labels_roundtrip_through_parse():
    for law in LAWS:
        assert parse_law(law.label()) == law
    assert parse_law("gue") == EntryLaw.gue()
    with pytest.raises(ValueError):
        parse_law("bogus")
    with pytest.raises(ValueError):
        parse_law("two-point:1,2")
    with pytest.raises(ValueError):
        parse_law("fixed-modulus:")


def test_radial_moments():
    gue = EntryLaw.gue()
    assert [gue.radial_moment(k) for k in range(5)] == [1.0, 1.0, 2.0, 6.0, 24.0]
    fixed = EntryLaw.fixed_modulus(1.3)
    assert fixed.radial_moment(2) == pytest.approx(1.3**4)
    two = EntryLaw.two_point(0.5, 1.5, 0.3)
    assert two.radial_moment(1) == pytest.approx(0.3 * 0.25 + 0.7 * 2.25)
    with pytest.raises(ValueError):
        gue.radial_moment(-1)


def test_entry_cumulants_gaussian_vanish_beyond_two():
    gue = EntryLaw.gue()
    assert beta_of(gue, 1) == pytest.approx(1.0)
    for n in (2, 3, 4):
        assert beta_of(gue, n) == pytest.approx(0.0, abs=1e-9)


def test_entry_cumulants_low_orders():
    for law in LAWS:
        m1, m2, m3 = (law.radial_moment(k) for k in (1, 2, 3))
        assert beta_of(law, 1) == pytest.approx(m1)
        assert beta_of(law, 2) == pytest.approx(m2 - 2 * m1**2)
        assert beta_of(law, 3) == pytest.approx(m3 - 9 * m2 * m1 + 12 * m1**3)
    assert beta_of(EntryLaw.fixed_modulus(1.0), 2) == pytest.approx(-1.0)


def test_entry_cumulants_invert_to_radial_moments():
    # Summing cumulant products over partitions whose blocks balance plain
    # and conjugated legs must rebuild E|x|^(2n); this pins signs and counts
    # at every supported order.
    for law in LAWS:
        for n in range(1, 5):
            total = 0.0
            for part in enumerate_partitions(2 * n):
                if all(
                    2 * sum(1 for x in b if x % 2) == len(b) for b in part.blocks
                ):
                    prod = 1.0
                    for b in part.blocks:
                        prod *= beta_of(law, len(b) // 2)
                    total += prod
            assert total == pytest.approx(law.radial_moment(n)), (law.label(), n)


def test_entry_cumulant_bounds():
    with pytest.raises(ValueError):
        beta_of(EntryLaw.gue(), 0)
    with pytest.raises(CapabilityError):
        beta_of(EntryLaw.gue(), 5)


def test_beta_assignment_keys():
    assign = beta_assignment(EntryLaw.fixed_modulus(1.0))
    assert sorted(assign) == [2, 4, 6, 8]
    assert assign[2] == pytest.approx(1.0)
    assert assign[4] == pytest.approx(-1.0)


def test_sample_is_selfadjoint_and_deterministic():
    for law in LAWS:
        mat = sample(law, 6, seed=42)
        assert mat.shape == (6, 6)
        assert np.allclose(mat, mat.conj().T)
        assert np.allclose(mat, sample(law, 6, seed=42))
        assert not np.allclose(mat, sample(law, 6, seed=43))
    with pytest.raises(ValueError):
        sample(EntryLaw.gue(), 0, seed=1)


def _complex_batch(law, N, count, rng):
    # The direct complex construction: whole complex entry blocks, the strict
    # upper triangle plus its conjugate transpose, a real Gaussian diagonal,
    # then one division by sqrt(N). It draws from `rng` exactly what
    # _sample_batch must draw, in the same order.
    shape = (count, N, N)
    if law.kind == "complex-gaussian":
        z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    else:
        theta = rng.uniform(0.0, 2.0 * math.pi, shape)
        if law.kind == "fixed-modulus-phase":
            modulus = law.params[0]
        else:
            c1, c2, p = law.params
            modulus = np.where(rng.random(shape) < p, c1, c2)
        z = modulus * np.exp(1j * theta)
    upper = np.triu(z, k=1)
    mats = upper + np.conj(np.transpose(upper, (0, 2, 1)))
    idx = np.arange(N)
    mats[:, idx, idx] = math.sqrt(beta_of(law, 1)) * rng.standard_normal((count, N))
    return mats / math.sqrt(N)


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.label())
def test_sample_batch_keeps_the_random_stream(law):
    # Fixed-seed estimates stay reproducible only if every batch consumes the
    # generator exactly as the complex construction does: same values, same
    # count of draws (the next draw after two batches agrees bit for bit).
    for N, count in ((1, 3), (2, 5), (7, 4), (16, 3)):
        ours, ref = np.random.default_rng(N), np.random.default_rng(N)
        for _ in range(2):
            mats = _sample_batch(law, N, count, ours)
            assert mats.shape == (count, N, N) and mats.dtype == complex
            ref_mats = _complex_batch(law, N, count, ref)
            np.testing.assert_allclose(mats, ref_mats, rtol=1e-14, atol=0)
            assert np.array_equal(mats, mats.conj().swapaxes(-1, -2))
        assert ours.random() == ref.random()


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.label())
def test_trace_powers_match_eigenvalue_power_sums(law):
    # Odd powers come from <X^k, X^(k+1)>, even ones from ||X^k||^2; both are
    # checked against sums of eigenvalue powers, in the requested order and
    # with repeats.
    for N in (1, 5, 12):
        mats = _sample_batch(law, N, 4, np.random.default_rng(N))
        eig = np.linalg.eigvalsh(mats)
        for orders in ((1, 2, 3, 4, 5, 6, 7, 8), (3, 1, 3), (8, 2), (2,), (7,), (6, 6, 5)):
            got = _trace_powers(mats, orders)
            want = np.array([(eig**p).sum(axis=1) for p in orders])
            size = np.array([(np.abs(eig) ** p).sum(axis=1) for p in orders])
            assert got.shape == (len(orders), 4)
            assert np.all(np.abs(got - want) <= 1e-12 * size), (N, orders)


def test_sample_entries_follow_the_law():
    # Off-diagonal entries carry modulus c / sqrt(N) under the fixed-modulus
    # law, and the diagonal is real.
    N = 30
    mat = sample(EntryLaw.fixed_modulus(2.0), N, seed=3)
    off = mat[~np.eye(N, dtype=bool)]
    assert np.allclose(np.abs(off), 2.0 / math.sqrt(N))
    assert np.allclose(mat.diagonal().imag, 0.0)


def test_plugin_cumulant_small_cases():
    cols = np.array([[1.0, 2.0, 3.0]])
    assert plugin_joint_cumulant(cols) == pytest.approx(2.0)
    pair = np.array([[1.0, 2.0, 3.0], [4.0, 6.0, 8.0]])
    assert plugin_joint_cumulant(pair) == pytest.approx(4.0 / 3.0)
    sym = np.array([[1.0, -1.0], [1.0, -1.0], [1.0, -1.0]])
    assert plugin_joint_cumulant(sym) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        plugin_joint_cumulant(np.empty((2, 0)))


def test_empirical_fluctuation_validation():
    gue = EntryLaw.gue()
    with pytest.raises(CapabilityError):
        empirical_fluctuation(gue, 4, (1, 1, 1, 1, 1), 100, 0)
    with pytest.raises(ValueError):
        empirical_fluctuation(gue, 4, (2,), 50, 0)
    with pytest.raises(ValueError):
        empirical_fluctuation(gue, 0, (2,), 100, 0)
    with pytest.raises(ValueError):
        empirical_fluctuation(gue, 4, (), 100, 0)


def test_dimension_limit_fails_before_sampling(monkeypatch):
    # One matrix of the largest supported N fills a whole sampling chunk.
    top = LIMITS["Monte Carlo dimension"]
    assert top * top == montecarlo._CHUNK_ENTRIES

    def draw(*args):
        pytest.fail("a matrix was sampled for a rejected dimension")

    monkeypatch.setattr(montecarlo, "_sample_batch", draw)
    with pytest.raises(CapabilityError):
        empirical_fluctuation(EntryLaw.gue(), top + 1, (2,), 100, 0)
    with pytest.raises(CapabilityError):
        sample(EntryLaw.gue(), top + 1, seed=0)


def test_empirical_fluctuation_result_shape():
    res = empirical_fluctuation(EntryLaw.gue(), 4, (2,), 100, seed=7)
    assert set(res) == {"orders", "N", "samples", "batches", "estimate", "stderr"}
    assert res["batches"] == 10
    again = empirical_fluctuation(EntryLaw.gue(), 4, (2,), 100, seed=7)
    assert again["estimate"] == res["estimate"]
    other = empirical_fluctuation(EntryLaw.gue(), 4, (2,), 100, seed=8)
    assert other["estimate"] != res["estimate"]


def test_estimates_match_exact_size_four_values():
    # The exact size-N expansion gives a parameter-free target, so the whole
    # sampling and estimation pipeline is checked end to end at modest cost.
    law = EntryLaw.two_point(0.5, 1.5, 0.3)
    assign = beta_assignment(law)
    for orders in [(2,), (4,), (2, 2)]:
        res = empirical_fluctuation(law, 4, orders, 10_000, seed=5)
        exact = float(finite_n_moment(orders, 4).evaluate(assign))
        z = (res["estimate"] - exact) / res["stderr"]
        assert abs(z) <= 4.0, (orders, z)


def test_estimates_match_exact_size_four_gaussian():
    gue = EntryLaw.gue()
    assign = beta_assignment(gue)
    for orders in [(2,), (4,), (2, 2)]:
        res = empirical_fluctuation(gue, 4, orders, 2_500, seed=11)
        exact = float(finite_n_moment(orders, 4).evaluate(assign))
        z = (res["estimate"] - exact) / res["stderr"]
        assert abs(z) <= 4.0, (orders, z)
