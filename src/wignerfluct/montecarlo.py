"""Monte Carlo estimation of trace fluctuation cumulants.

Matrices are sampled per entry law (self-adjoint, phase-invariant above the
diagonal, real Gaussian diagonal). Each chunk draws full N x N blocks of the
law, of which only the strict upper triangles are used, then the diagonal,
and assembles the Hermitian matrices in real arithmetic; a seed fixes every
draw and so every estimate. Trace powers come from Frobenius inner products,
exact for self-adjoint X:

    Tr X^(2k) = <X^k, X^k>,    Tr X^(2k+1) = <X^k, X^(k+1)>,

so only the powers up to ceil(p / 2) are multiplied out. Joint cumulants of
the trace vector use plain plug-in estimators, and standard errors come from
batch means with roughly sqrt(samples) batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import LIMITS, check_limit, validate_orders
from .setpartitions import enumerate_partitions

COMPLEX_GAUSSIAN = "complex-gaussian"
FIXED_MODULUS = "fixed-modulus-phase"
TWO_POINT = "two-point-modulus-phase"

# A sampling chunk holds at most _MATRIX_CHUNK matrices and _CHUNK_ENTRIES
# matrix entries (64 MB as complex128), whatever N; the "Monte Carlo
# dimension" limit is the largest N whose one matrix fits.
_MATRIX_CHUNK = 256
_CHUNK_ENTRIES = 1 << 22


@dataclass(frozen=True)
class EntryLaw:
    """Distribution of one above-diagonal entry (before the 1/sqrt(N))."""

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == COMPLEX_GAUSSIAN:
            if self.params:
                raise ValueError("complex-gaussian law takes no parameters")
        elif self.kind == FIXED_MODULUS:
            if len(self.params) != 1 or self.params[0] < 0:
                raise ValueError("fixed-modulus law needs one nonnegative modulus")
        elif self.kind == TWO_POINT:
            if len(self.params) != 3:
                raise ValueError("two-point law needs (c1, c2, p)")
            c1, c2, p = self.params
            if c1 < 0 or c2 < 0 or not 0 <= p <= 1:
                raise ValueError(f"bad two-point parameters: {self.params}")
        else:
            raise ValueError(f"unknown law kind: {self.kind}")

    @staticmethod
    def gue() -> "EntryLaw":
        return EntryLaw(COMPLEX_GAUSSIAN)

    @staticmethod
    def fixed_modulus(c: float) -> "EntryLaw":
        return EntryLaw(FIXED_MODULUS, (float(c),))

    @staticmethod
    def two_point(c1: float, c2: float, p: float) -> "EntryLaw":
        return EntryLaw(TWO_POINT, (float(c1), float(c2), float(p)))

    def radial_moment(self, k: int) -> float:
        """E |x|^(2k)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.kind == COMPLEX_GAUSSIAN:
            return float(math.factorial(k))
        if self.kind == FIXED_MODULUS:
            return self.params[0] ** (2 * k)
        c1, c2, p = self.params
        return p * c1 ** (2 * k) + (1 - p) * c2 ** (2 * k)

    def label(self) -> str:
        if self.kind == COMPLEX_GAUSSIAN:
            return "gue"
        if self.kind == FIXED_MODULUS:
            return f"fixed-modulus:{self.params[0]:g}"
        c1, c2, p = self.params
        return f"two-point:{c1:g},{c2:g},{p:g}"


def parse_law(text: str) -> EntryLaw:
    """Parse 'gue', 'fixed-modulus:c', or 'two-point:c1,c2,p'."""
    text = text.strip()
    if text == "gue":
        return EntryLaw.gue()
    head, sep, tail = text.partition(":")
    if head == "fixed-modulus" and sep:
        return EntryLaw.fixed_modulus(float(tail))
    if head == "two-point" and sep:
        parts = [float(x) for x in tail.split(",")]
        if len(parts) != 3:
            raise ValueError(f"two-point law needs three parameters: {text!r}")
        return EntryLaw.two_point(*parts)
    raise ValueError(f"cannot parse law {text!r}")


def _cumulant(n: int, moment: Callable[[tuple[int, ...]], complex]) -> complex:
    """The joint cumulant of n variables from their mixed moments: the sum
    over the partitions of 1..n of (-1)^(k-1) (k-1)! times the product of
    moment(block) over the k blocks."""
    total = 0.0
    for part in enumerate_partitions(n):
        k = part.num_blocks()
        term = (-1) ** (k - 1) * math.factorial(k - 1)
        for block in part.blocks:
            term = term * moment(block)
        total += term
    return total


def beta_of(law: EntryLaw, n: int) -> float:
    """The 2n-th alternating entry cumulant of the law.

    Only blocks that pick up as many plain as conjugated factors survive
    phase invariance; each such block's moment is a radial moment, and
    every other block's moment is zero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_limit("entry cumulant n", n)

    def moment(block: tuple[int, ...]) -> float:
        if 2 * sum(1 for x in block if x % 2 == 1) != len(block):
            return 0.0
        return law.radial_moment(len(block) // 2)

    return _cumulant(2 * n, moment)


def beta_assignment(law: EntryLaw, max_n: int = LIMITS["entry cumulant n"]) -> dict[int, float]:
    """Values {2: b2, 4: b4, ...} suitable for BetaPoly.evaluate."""
    return {2 * n: beta_of(law, n) for n in range(1, max_n + 1)}


def _sample_batch(
    law: EntryLaw, N: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """`count` self-adjoint N x N matrices, drawn in one fixed order: the
    full (count, N, N) blocks of the above-diagonal law, then the diagonal.

    Only the draws above the diagonal are used: each part is multiplied by a
    factor that carries the scale 1/sqrt(N) above the diagonal and is zero
    on and below it. The real parts are then mirrored, and the imaginary
    parts mirrored with a sign flip, into one complex array.
    """
    shape = (count, N, N)
    scale = 1.0 / math.sqrt(N)

    def upper(value: float) -> np.ndarray:
        return np.triu(np.full((N, N), value * scale), k=1)

    if law.kind == COMPLEX_GAUSSIAN:
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        factor = upper(math.sqrt(0.5))
        re *= factor
        im *= factor
    else:
        theta = rng.uniform(0.0, 2.0 * math.pi, shape)
        if law.kind == FIXED_MODULUS:
            modulus = upper(law.params[0])
        else:
            c1, c2, p = law.params
            modulus = np.where(rng.random(shape) < p, upper(c1), upper(c2))
        # cos and sin only above the diagonal; the zero modulus clears the
        # angles that sin leaves below it.
        above = np.triu(np.ones((N, N), dtype=bool), k=1)
        re = np.cos(theta, out=np.zeros(shape), where=above)
        re *= modulus
        im = np.sin(theta, out=theta, where=above)
        im *= modulus
        del modulus  # freed before the complex array is allocated
    mats = np.empty(shape, dtype=complex)
    np.add(re, np.swapaxes(re, 1, 2), out=mats.real)
    np.subtract(im, np.swapaxes(im, 1, 2), out=mats.imag)
    diag_sd = math.sqrt(beta_of(law, 1)) * scale
    idx = np.arange(N)
    mats.real[:, idx, idx] = diag_sd * rng.standard_normal((count, N))
    return mats


def sample(law: EntryLaw, N: int, seed: int) -> np.ndarray:
    """One self-adjoint N x N matrix, deterministic in the seed."""
    if N < 1:
        raise ValueError("N must be >= 1")
    check_limit("Monte Carlo dimension", N)
    rng = np.random.default_rng(seed)
    return _sample_batch(law, N, 1, rng)[0]


def _frobenius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_i, b_i> for each matrix of two complex stacks: one real dot
    product of their float64 views per matrix."""
    count = a.shape[0]
    x = a.view(np.float64).reshape(count, 1, -1)
    y = b.view(np.float64).reshape(count, -1, 1)
    return (x @ y)[:, 0, 0]


def _trace_powers(mats: np.ndarray, powers: Sequence[int]) -> np.ndarray:
    """Tr(X^p) for each requested power of self-adjoint matrices.

    With X self-adjoint, Tr X^(2k) = <X^k, X^k> and Tr X^(2k+1) =
    <X^k, X^(k+1)> (Frobenius inner products), so only the powers up to
    ceil(max(p) / 2) are formed, and two at a time. Returns an array of
    shape (len(powers), count).
    """
    wanted = set(powers)
    traces: dict[int, np.ndarray] = {}
    if 1 in wanted:
        traces[1] = np.einsum("bii->b", mats).real
    current = mats
    for k in range(1, (max(wanted) + 1) // 2 + 1):
        if k > 1:
            previous, current = current, current @ mats
            if 2 * k - 1 in wanted:
                traces[2 * k - 1] = _frobenius(previous, current)
        if 2 * k in wanted:
            traces[2 * k] = _frobenius(current, current)
    return np.array([traces[p] for p in powers])


def plugin_joint_cumulant(columns: np.ndarray) -> complex:
    """Plug-in joint cumulant of r jointly sampled variables.

    `columns` has shape (r, n_samples). Columns are centered first when
    r >= 2 (which leaves the cumulant unchanged in distribution but kills
    the dominant moment cancellations); r = 1 is the plain mean.

    The moments are plug-in (divided by n), so the estimate is biased: for a
    covariance by a factor of about 1 - 1/n. On the batches of about
    sqrt(samples) matrices that `empirical_fluctuation` uses, that is about
    -0.7 standard errors at any sample count (GUE (2, 2), N = 16, 400
    samples, seeds 0-199: mean 1.908 +- 0.010 against the exact 2).
    """
    r, n = columns.shape
    if n < 1:
        raise ValueError("need at least one sample")
    if r == 1:
        return complex(np.mean(columns[0]))
    cols = columns - columns.mean(axis=1, keepdims=True)

    def moment(block: tuple[int, ...]) -> complex:
        prod = np.ones(n, dtype=complex)
        for i in block:
            prod = prod * cols[i - 1]
        return np.mean(prod)

    return complex(_cumulant(r, moment))


def empirical_fluctuation(
    law: EntryLaw,
    N: int,
    orders: Sequence[int],
    samples: int,
    seed: int,
) -> dict:
    """Monte Carlo estimate of a fluctuation moment with a batch-means error.

    The sample budget is split into floor(sqrt(samples)) batches with their
    own spawned RNG streams; the estimate is the mean of the per-batch
    plug-in values and the standard error their spread.
    """
    orders = validate_orders(orders)
    r = len(orders)
    check_limit("Monte Carlo arguments", r)
    if N < 1:
        raise ValueError("N must be >= 1")
    check_limit("Monte Carlo dimension", N)
    n_batches = math.isqrt(samples)
    if n_batches < 1 or samples < 10 * n_batches:
        raise ValueError(
            f"need at least 10 samples per batch: {samples} samples, {n_batches} batches"
        )
    quotas = [samples // n_batches] * n_batches
    for i in range(samples % n_batches):
        quotas[i] += 1
    streams = np.random.SeedSequence(seed).spawn(n_batches)
    scale = float(N) ** (r - 2)
    chunk = min(_MATRIX_CHUNK, _CHUNK_ENTRIES // (N * N))
    estimates = np.empty(n_batches)
    for b, (quota, ss) in enumerate(zip(quotas, streams)):
        rng = np.random.default_rng(ss)
        traces = np.empty((r, quota))
        for done in range(0, quota, chunk):
            take = min(chunk, quota - done)
            # No chunk's matrices outlive its traces, so the next chunk
            # samples with only its own matrices in memory.
            traces[:, done : done + take] = _trace_powers(
                _sample_batch(law, N, take, rng), orders
            )
        estimates[b] = scale * plugin_joint_cumulant(traces).real
    estimate = float(np.mean(estimates))
    stderr = (
        float(np.std(estimates, ddof=1) / math.sqrt(n_batches))
        if n_batches > 1
        else float("nan")
    )
    return {
        "orders": list(orders),
        "N": N,
        "samples": samples,
        "batches": n_batches,
        "estimate": estimate,
        "stderr": stderr,
    }
