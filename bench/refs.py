"""Independent references for the benchmark's correctness checks.

Nothing here imports wignerfluct. Each value is computed from its own
definition, so agreement with the program is evidence rather than a
tautology:

* parse_poly reads the program's printed polynomials in b2, b4, ...;
* closed_form_cumulant is the hand-derived cumulant table with the
  obstruction sets A_1..A_4 entered as data;
* genus0_pairings counts connected genus-0 pairings, the GUE moments;
* entry_cumulants turns the radial moments of an entry law into b2, b4, ...;
* brute_force_moment sums over every index tuple of an N x N matrix.

A polynomial is a dict from a monomial (the sorted tuple of its symbol
indices, b4^2 being (4, 4)) to a nonzero Fraction.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterator, Sequence

Poly = dict[tuple[int, ...], Fraction]

_NUMBER = re.compile(r"\d+(/\d+)?")
_SYMBOL = re.compile(r"b(\d+)(?:\^(\d+))?")


def parse_poly(text: str) -> Poly:
    """Parse a rendering such as '8*b8 + 24*b4^2', '-2*b4', '49/25*b4' or '0'."""
    text = text.strip()
    if text == "0":
        return {}
    out: Poly = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        factors = term.lstrip("-").split("*")
        coeff = Fraction(1)
        if _NUMBER.fullmatch(factors[0]):
            coeff = Fraction(factors.pop(0))
        mono: list[int] = []
        for factor in factors:
            match = _SYMBOL.fullmatch(factor)
            if match is None:
                raise ValueError(f"cannot parse factor {factor!r} in {text!r}")
            mono += [int(match[1])] * int(match[2] or 1)
        key = tuple(sorted(mono))
        if key in out or coeff == 0:
            raise ValueError(f"malformed polynomial {text!r}")
        out[key] = sign * coeff
    return out


def evaluate(poly: Poly, values: dict[int, Fraction]) -> Fraction:
    """Value of the polynomial with b<i> set to values[i]."""
    total = Fraction(0)
    for mono, coeff in poly.items():
        term = coeff
        for idx in mono:
            term *= values[idx]
        total += term
    return total


def gue_value(poly: Poly) -> Fraction:
    """Value at b2 = 1 and every higher entry cumulant 0."""
    return sum((c for mono, c in poly.items() if set(mono) <= {2}), Fraction(0))


# ---------------------------------------------------------------------------
# The cumulant table in closed form


# Monomials of the obstruction sets A_q: A_1..A_3 are empty and A_4 has three
# members, each with two blocks of size 4 (the paper's A_4 table).
OBSTRUCTION_MONOMIALS: dict[int, Poly] = {
    1: {},
    2: {},
    3: {},
    4: {(4, 4): Fraction(3)},
}


def cumulant_keys(max_parts: int, max_total: int) -> list[tuple[int, ...]]:
    """Every ascending tuple of positive ints with at most max_parts entries
    and total at most max_total."""

    def rec(remaining: int, minimum: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if acc:
            yield acc
        if len(acc) == max_parts:
            return
        for part in range(minimum, remaining + 1):
            yield from rec(remaining - part, part, acc + (part,))

    return list(rec(max_total, 1, ()))


def closed_form_cumulant(key: Sequence[int]) -> Poly:
    """Fluctuation cumulant of a key with u arguments 1 and v arguments 2:

        (-1)^(u/2) 2^(q-1) u! / (2^(u/2) (u/2)!) (b_2q + monomials of A_q),

    q = u/2 + v. Any argument of 3 or more, odd u, the degenerate key (1, 1)
    and the empty key give zero.
    """
    u = sum(1 for x in key if x == 1)
    v = sum(1 for x in key if x == 2)
    if u + v != len(key) or u % 2 or (u, v) in ((2, 0), (0, 0)):
        return {}
    q = u // 2 + v
    coeff = Fraction(
        (-1) ** (u // 2) * 2 ** (q - 1) * factorial(u),
        2 ** (u // 2) * factorial(u // 2),
    )
    poly: Poly = {(2 * q,): Fraction(1)}
    for mono, c in OBSTRUCTION_MONOMIALS[q].items():
        poly[mono] = poly.get(mono, Fraction(0)) + c
    return {mono: coeff * c for mono, c in poly.items()}


# ---------------------------------------------------------------------------
# GUE: connected genus-0 pairings


def _cycle_count(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    count = 0
    for start in range(len(perm)):
        if not seen[start]:
            count += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
    return count


def _pairings(points: list[int]) -> Iterator[list[tuple[int, int]]]:
    if not points:
        yield []
        return
    first = points[0]
    for j in range(1, len(points)):
        rest = points[1:j] + points[j + 1 :]
        for tail in _pairings(rest):
            yield [(first, points[j])] + tail


def genus0_pairings(shape: Sequence[int]) -> int:
    """Pairings sigma of the m = sum(shape) points with
    #sigma + #gamma + #(sigma^-1 gamma) = m + 2 and <sigma, gamma> transitive,
    gamma being the product of consecutive cycles of the given lengths."""
    m = sum(shape)
    if m % 2:
        return 0
    gamma = []
    start = 0
    for length in shape:
        gamma += [start + (i + 1) % length for i in range(length)]
        start += length
    count = 0
    for pairs in _pairings(list(range(m))):
        sigma = [0] * m
        for a, b in pairs:
            sigma[a], sigma[b] = b, a
        composed = [sigma[gamma[x]] for x in range(m)]  # sigma^-1 = sigma
        if m // 2 + len(shape) + _cycle_count(composed) != m + 2:
            continue
        reached = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for y in (sigma[x], gamma[x]):
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        count += len(reached) == m
    return count


# ---------------------------------------------------------------------------
# Entry laws


Radial = Callable[[int], Fraction]

# E|x|^(2a) of one above-diagonal entry, for the laws the benchmark uses; the
# two-point law has |x|^2 = 1/4 or 9/4 with equal probability.
LAWS: dict[str, Radial] = {
    "gue": lambda a: Fraction(factorial(a)),
    "two-point:0.5,1.5,0.5": lambda a: (Fraction(1, 4) ** a + Fraction(9, 4) ** a) / 2,
}


def entry_cumulants(radial: Radial, max_index: int = 8) -> dict[int, Fraction]:
    """b2, b4, ... of a phase-invariant entry from its radial moments.

    b_2n is the joint cumulant of the alternating word x, conj(x), x, ...
    of length 2n. Splitting off the block of the first x in the moment
    expansion, and using that only blocks with as many x as conj(x) survive,
    gives M_n = sum_j C(n-1, j-1) C(n, j) b_2j M_(n-j), solved here for b_2n.
    """
    b: dict[int, Fraction] = {}
    for n in range(1, max_index // 2 + 1):
        rest = sum(
            comb(n - 1, j - 1) * comb(n, j) * b[2 * j] * radial(n - j)
            for j in range(1, n)
        )
        b[2 * n] = radial(n) - rest
    return b


# ---------------------------------------------------------------------------
# Brute-force finite-N moments


def _loop_signatures(k: int, N: int) -> Counter:
    """Directed-edge multisets of the terms of Tr Y^k = sum over i_1..i_k of
    Y[i1,i2] Y[i2,i3] ... Y[ik,i1], with their multiplicities."""
    out: Counter = Counter()
    for idx in itertools.product(range(N), repeat=k):
        edges = Counter((idx[j], idx[(j + 1) % k]) for j in range(k))
        out[tuple(sorted(edges.items()))] += 1
    return out


def _weight_key(edges: Counter) -> tuple | None:
    """Which entry moments one index term picks up: per unordered off-diagonal
    pair, E|x|^(2a) when it is crossed a times each way (zero if unbalanced);
    per diagonal entry, the d-th moment of a real Gaussian (zero if d odd)."""
    radial, diag = [], []
    for (a, b), count in edges.items():
        if a == b:
            if count % 2:
                return None
            diag.append(count)
        elif a < b:
            if edges.get((b, a), 0) != count:
                return None
            radial.append(count)
        elif (b, a) not in edges:
            return None
    return tuple(sorted(radial)), tuple(sorted(diag))


def _set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [[first]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]


def _double_factorial(n: int) -> int:
    return 1 if n <= 0 else n * _double_factorial(n - 2)


def brute_force_moment(
    shape: Sequence[int], N: int, laws: Sequence[str]
) -> dict[str, Fraction]:
    """N^(r-2) k_r(Tr X^m1, ..., Tr X^mr) for X = Y / sqrt(N), exactly, by
    summing every index tuple of every subset moment of Y's traces and
    converting the subset moments into the joint cumulant; one value per law.
    The diagonal of Y is real Gaussian with variance b2. The total order must
    be even."""
    r, m = len(shape), sum(shape)
    if m % 2:
        raise ValueError(f"odd total order {m}")
    signatures = [_loop_signatures(k, N) for k in shape]
    keyed: dict[tuple[int, ...], Counter] = {}
    for size in range(1, r + 1):
        for subset in itertools.combinations(range(r), size):
            acc: Counter = Counter()
            for terms in itertools.product(*(signatures[i].items() for i in subset)):
                edges: Counter = Counter()
                mult = 1
                for sig, count in terms:
                    edges.update(dict(sig))
                    mult *= count
                key = _weight_key(edges)
                if key is not None:
                    acc[key] += mult
            keyed[subset] = acc
    out = {}
    for law in laws:
        radial = LAWS[law]
        b2 = entry_cumulants(radial, 2)[2]

        def weight(key: tuple) -> Fraction:
            value = Fraction(1)
            for a in key[0]:
                value *= radial(a)
            for d in key[1]:
                value *= _double_factorial(d - 1) * b2 ** (d // 2)
            return value

        moment = {
            subset: sum((n * weight(key) for key, n in acc.items()), Fraction(0))
            for subset, acc in keyed.items()
        }
        kappa = Fraction(0)
        for blocks in _set_partitions(list(range(r))):
            k = len(blocks)
            term = Fraction((-1) ** (k - 1) * factorial(k - 1))
            for block in blocks:
                term *= moment[tuple(block)]
            kappa += term
        out[law] = kappa * Fraction(N) ** (r - 2 - m // 2)
    return out
