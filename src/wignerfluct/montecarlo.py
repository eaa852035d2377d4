"""Monte Carlo estimation of trace fluctuation cumulants.

Matrices are sampled per entry law (self-adjoint, phase-invariant above the
diagonal, real Gaussian diagonal), trace powers are taken by repeated dense
matrix multiplication, and joint cumulants of the trace vector use plain
plug-in estimators. Standard errors come from batch means with roughly
sqrt(samples) batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapabilityError
from .setpartitions import enumerate_partitions

COMPLEX_GAUSSIAN = "complex-gaussian"
FIXED_MODULUS = "fixed-modulus-phase"
TWO_POINT = "two-point-modulus-phase"

_MATRIX_CHUNK = 256


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


MAX_BETA_HALF_ORDER = 4


def beta_of(law: EntryLaw, n: int) -> float:
    """The 2n-th alternating entry cumulant of the law.

    Only partitions whose every block picks up as many plain as conjugated
    factors survive phase invariance; each such block contributes a radial
    moment.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_BETA_HALF_ORDER:
        raise CapabilityError(
            f"entry cumulants are supported up to 2n = {2 * MAX_BETA_HALF_ORDER} (got 2n = {2 * n})"
        )
    total = 0.0
    for part in enumerate_partitions(2 * n):
        balanced = all(
            2 * sum(1 for x in b if x % 2 == 1) == len(b) for b in part.blocks
        )
        if not balanced:
            continue
        k = part.num_blocks()
        term = (-1) ** (k - 1) * math.factorial(k - 1)
        for b in part.blocks:
            term *= law.radial_moment(len(b) // 2)
        total += term
    return total


def beta_assignment(law: EntryLaw, max_n: int = MAX_BETA_HALF_ORDER) -> dict[int, float]:
    """Values {2: b2, 4: b4, ...} suitable for BetaPoly.evaluate."""
    return {2 * n: beta_of(law, n) for n in range(1, max_n + 1)}


def _entry_block(law: EntryLaw, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    if law.kind == COMPLEX_GAUSSIAN:
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    theta = rng.uniform(0.0, 2.0 * math.pi, shape)
    if law.kind == FIXED_MODULUS:
        modulus = law.params[0]
    else:
        c1, c2, p = law.params
        modulus = np.where(rng.random(shape) < p, c1, c2)
    return modulus * np.exp(1j * theta)


def _sample_batch(
    law: EntryLaw, N: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    z = _entry_block(law, rng, (count, N, N))
    upper = np.triu(z, k=1)
    mats = upper + np.conj(np.transpose(upper, (0, 2, 1)))
    idx = np.arange(N)
    diag_sd = math.sqrt(beta_of(law, 1))
    mats[:, idx, idx] = diag_sd * rng.standard_normal((count, N))
    return mats / math.sqrt(N)


def sample(law: EntryLaw, N: int, seed: int) -> np.ndarray:
    """One self-adjoint N x N matrix, deterministic in the seed."""
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = np.random.default_rng(seed)
    return _sample_batch(law, N, 1, rng)[0]


def _trace_powers(mats: np.ndarray, powers: Sequence[int]) -> np.ndarray:
    """Tr(X^p) for each requested power, via repeated matrix products.

    Returns an array of shape (len(powers), count); traces of self-adjoint
    powers are real.
    """
    wanted = set(powers)
    out = np.empty((len(powers), mats.shape[0]))
    current = mats
    traces: dict[int, np.ndarray] = {}
    for p in range(1, max(wanted) + 1):
        if p > 1:
            current = current @ mats
        if p in wanted:
            traces[p] = np.einsum("bii->b", current).real
    for i, p in enumerate(powers):
        out[i] = traces[p]
    return out


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
    total = 0.0 + 0.0j
    for part in enumerate_partitions(r):
        k = part.num_blocks()
        term = (-1) ** (k - 1) * math.factorial(k - 1)
        for block in part.blocks:
            prod = np.ones(n, dtype=complex)
            for i in block:
                prod = prod * cols[i - 1]
            term = term * np.mean(prod)
        total += term
    return complex(total)


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
    orders = tuple(int(x) for x in orders)
    if not orders or any(x < 1 for x in orders):
        raise ValueError(f"orders must be positive integers: {orders}")
    r = len(orders)
    if r > 4:
        raise CapabilityError(f"fluctuations of order > 4 are unsupported (got {r})")
    if N < 1:
        raise ValueError("N must be >= 1")
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
    estimates = np.empty(n_batches)
    for b, (quota, ss) in enumerate(zip(quotas, streams)):
        rng = np.random.default_rng(ss)
        traces = np.empty((r, quota))
        done = 0
        # Keep each chunk of complex matrices around 64 MB regardless of N.
        chunk = max(1, min(_MATRIX_CHUNK, (1 << 22) // (N * N)))
        while done < quota:
            take = min(chunk, quota - done)
            mats = _sample_batch(law, N, take, rng)
            traces[:, done : done + take] = _trace_powers(mats, orders)
            done += take
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
