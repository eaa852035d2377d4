"""Shared exception types and the capability limits: public functions check
their arguments here once, on entry, then run unchecked internal kernels."""

from __future__ import annotations

from typing import Iterable


class CapabilityError(Exception):
    """A request is outside the supported bounds of the implementation.

    Raised for out-of-range orders, obstruction sets beyond the tabulated
    range, and similar capacity limits — as opposed to malformed input, which
    raises ValueError.
    """


# The largest value each bounded request accepts. The argument limits are as
# far as pseudo-cumulants are proven to equal the free cumulants, the
# obstruction limit is the last tabulated A_n, and the others keep exhaustive
# scans short; moment_oracle and finite_n_moment take an explicit `bound` in
# place of the oracle limit.
LIMITS: dict[str, int] = {
    "oracle total order": 8,
    "cumulant arguments": 4,
    "cumulant total order": 8,
    "obstruction set n": 5,
    "enumerate nc total order": 8,
    "enumerate pairing total order": 12,
    "entry cumulant n": 4,
    "Monte Carlo arguments": 4,
}


def check_limit(name: str, value: int, bound: int | None = None) -> None:
    """CapabilityError when value exceeds LIMITS[name] (or `bound`)."""
    bound = LIMITS[name] if bound is None else bound
    if value > bound:
        raise CapabilityError(f"{name} is supported up to {bound} (got {value})")


def validate_orders(orders: Iterable[int]) -> tuple[int, ...]:
    """The trace powers as a tuple of positive ints, or ValueError."""
    out = tuple(int(x) for x in orders)
    if not out or any(x < 1 for x in out):
        raise ValueError(f"orders must be positive integers: {out}")
    return out
