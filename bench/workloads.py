"""The benchmark's workloads: the CLI commands each one runs, and the checks
their outputs must pass.

Every command is one `wignerfluct` invocation; `commands(seed)` builds the
list, and `check(commands, outputs)` returns a list of problems (empty when
every output is right). Each check also feeds its reference one deliberately
wrong value and reports a problem if the reference fails to reject it.

Only the Monte Carlo and finite-N checks call back into wignerfluct, after
the timed calls: the sampled estimate is compared with the exact finite-N
polynomial at the same N, and the finite-N results with the limit they must
approach. Every other expected value comes from refs, which imports nothing
from the program.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import refs

Output = tuple[int, str]  # exit status, captured stdout


def shapes(total: int, max_parts: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Weakly decreasing tuples of positive ints summing to total."""
    if total == 0:
        return [()]
    if max_parts == 0:
        return []
    largest = total if largest is None else largest
    return [
        (first,) + rest
        for first in range(min(total, largest), 0, -1)
        for rest in shapes(total - first, max_parts - 1, first)
    ]


def _orders(shape: tuple[int, ...]) -> str:
    return ",".join(map(str, shape))


def _rejects(problems_for_wrong_value: list[str], what: str) -> list[str]:
    if problems_for_wrong_value:
        return []
    return [f"reference accepted a deliberately wrong value ({what})"]


# ---------------------------------------------------------------------------
# cumulant_table: the full free-cumulant table (<= 4 arguments, total <= 8)


CUMULANT_KEYS = refs.cumulant_keys(4, 8)


def _cumulant_commands(seed: int) -> list[list[str]]:
    return [["cumulants", "--format", "json"]]


def _table_problems(rows: dict[str, str]) -> list[str]:
    expected = {_orders(k): refs.closed_form_cumulant(k) for k in CUMULANT_KEYS}
    problems = [f"row {key} is not a table key" for key in rows if key not in expected]
    for key, poly in expected.items():
        got = refs.parse_poly(rows.get(key, "0"))
        if got != poly:
            problems.append(f"cumulant {key}: got {rows.get(key, '0')!r}")
    return problems


def _cumulant_check(commands: list[list[str]], outputs: list[Output]) -> list[str]:
    rows = json.loads(outputs[0][1])
    wrong = {**rows, "2,2,2,2": "8*b8 + 23*b4^2"}
    return _table_problems(rows) + _rejects(_table_problems(wrong), "kappa(2,2,2,2)")


# ---------------------------------------------------------------------------
# moment_check: closed formula against the defining-sum oracle


# Every weakly decreasing shape of total <= 9 with <= 5 parts, and the 4- and
# 5-part shapes of total 10: the many-circle cases. The 14 one- to three-part
# shapes of total 10 cost about 25 s more per run and are left out to keep
# the whole benchmark inside its time budget.
MOMENT_SHAPES = [s for t in range(1, 10) for s in shapes(t, 5)] + [
    s for s in shapes(10, 5) if len(s) >= 4
]


def _moment_commands(seed: int) -> list[list[str]]:
    cmds = [
        ["oracle", "--orders", _orders(s), "--oracle-bound", "10", "--format", "json"]
        for s in MOMENT_SHAPES
    ]
    random.Random(seed).shuffle(cmds)
    return cmds


def _gue_problems(shape: tuple[int, ...], theorem: str, count: int) -> list[str]:
    value = refs.gue_value(refs.parse_poly(theorem))
    if value != count:
        return [f"GUE value of {shape} is {value}, genus-0 pairings give {count}"]
    return []


def _moment_check(commands: list[list[str]], outputs: list[Output]) -> list[str]:
    problems = []
    for cmd, (status, text) in zip(commands, outputs):
        shape = tuple(int(x) for x in cmd[2].split(","))
        row = json.loads(text)
        if status != 0 or row["verdict"] != "PASS" or row["theorem"] != row["oracle"]:
            problems.append(f"oracle {shape}: exit {status}, {row}")
        if row["orders"] != list(shape):
            problems.append(f"oracle {shape}: echoed orders {row['orders']}")
        if sum(shape) % 2 and row["theorem"] != "0":
            problems.append(f"oracle {shape}: odd total but {row['theorem']!r}")
        problems += _gue_problems(shape, row["theorem"], refs.genus0_pairings(shape))
    problems += _rejects(_gue_problems((2, 2), "2*b4 + 2*b2^2", 3), "GUE (2,2) = 3")
    return problems


# ---------------------------------------------------------------------------
# finite_n_sweep: exact finite-N moments over a range of N


FINITE_SHAPES = shapes(8, 4)
FINITE_DIMS = (1, 2, 3, 10, 100, 1000)
SMALL_DIMS = (1, 2, 3)


def _finite_commands(seed: int) -> list[list[str]]:
    cmds = [
        ["finite-n", "--orders", _orders(s), "--dim", str(n), "--format", "json"]
        for s in FINITE_SHAPES
        for n in FINITE_DIMS
    ]
    random.Random(seed).shuffle(cmds)
    return cmds


def _brute_force_problems(shape, N, poly: refs.Poly, exact: dict[str, Fraction]) -> list[str]:
    problems = []
    for law, value in exact.items():
        got = refs.evaluate(poly, refs.entry_cumulants(refs.LAWS[law]))
        if got != value:
            problems.append(f"finite-n {shape} N={N} under {law}: {got}, brute force {value}")
    return problems


def _distance(a: refs.Poly, b: refs.Poly) -> Fraction:
    return sum((abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()), Fraction(0))


# The 1/N law: alpha_N = alpha + c/N + O(1/N^2), so the coefficient distance
# to the limit must shrink about tenfold per decade of N. 8 leaves room for
# the 1/N^2 term at N = 10.
MIN_DECADE_SHRINK = 8


def _finite_check(commands: list[list[str]], outputs: list[Output]) -> list[str]:
    from wignerfluct import fluctuation_moment

    alpha: dict[tuple[tuple[int, ...], int], str] = {}
    exact: dict[tuple[tuple[int, ...], int], dict[str, Fraction]] = {}
    problems = []
    for cmd, (status, text) in zip(commands, outputs):
        shape, N = tuple(int(x) for x in cmd[2].split(",")), int(cmd[4])
        row = json.loads(text)
        if status != 0 or row["orders"] != list(shape) or row["N"] != N:
            problems.append(f"finite-n {shape} N={N}: exit {status}, {row}")
        alpha[shape, N] = row["alpha"]
    for shape in FINITE_SHAPES:
        for N in SMALL_DIMS:
            exact[shape, N] = refs.brute_force_moment(shape, N, list(refs.LAWS))
            poly = refs.parse_poly(alpha[shape, N])
            problems += _brute_force_problems(shape, N, poly, exact[shape, N])
        limit = refs.parse_poly(str(fluctuation_moment(shape)))
        dist = [_distance(refs.parse_poly(alpha[shape, N]), limit) for N in (10, 100, 1000)]
        for near, far in zip(dist, dist[1:]):
            if far * MIN_DECADE_SHRINK > near:
                problems.append(f"finite-n {shape}: distance to the limit {dist} is not 1/N")
    wrong = refs.parse_poly(alpha[(2, 2, 2, 2), 2])
    wrong[(8,)] = wrong.get((8,), 0) + 1
    problems += _rejects(
        _brute_force_problems((2, 2, 2, 2), 2, wrong, exact[(2, 2, 2, 2), 2]), "b8 + 1 at N = 2"
    )
    return problems


# ---------------------------------------------------------------------------
# monte_carlo: sampled estimates at finite N


MC_CALLS = (
    # law, orders, N, samples
    ("gue", (2, 2), 64, 10_000),
    ("two-point:0.5,1.5,0.5", (4, 4), 256, 500),
)
# Batch means over ~sqrt(samples) batches give a t-like z with >= 21 degrees
# of freedom; the plug-in estimator is biased by about -0.7 standard errors.
MAX_ABS_Z = 6.0


def _mc_commands(seed: int) -> list[list[str]]:
    return [
        ["mc", "--law", law, "--orders", _orders(orders), "--dim", str(N),
         "--samples", str(samples), "--seed", str(seed), "--format", "json"]
        for law, orders, N, samples in MC_CALLS
    ]


def _limit_problems(law: str, orders, printed: float, limit: refs.Poly, b) -> list[str]:
    value = float(refs.evaluate(limit, b))
    if not math.isclose(printed, value, rel_tol=1e-9, abs_tol=1e-12):
        return [f"mc {law} {orders}: printed limit {printed}, entry cumulants give {value}"]
    return []


def _mc_check(commands: list[list[str]], outputs: list[Output]) -> list[str]:
    from wignerfluct import finite_n_moment, fluctuation_moment

    calls = {law: (orders, N, samples) for law, orders, N, samples in MC_CALLS}
    problems = []
    for cmd, (status, text) in zip(commands, outputs):
        law = cmd[2]
        orders, N, samples = calls[law]
        row = json.loads(text)
        if status != 0 or row["N"] != N or row["samples"] != samples:
            problems.append(f"mc {law} {orders}: exit {status}, {row}")
            continue
        b = refs.entry_cumulants(refs.LAWS[law])
        exact_n = float(refs.evaluate(refs.parse_poly(str(finite_n_moment(orders, N))), b))
        if not row["stderr"] > 0 or abs(row["estimate"] - exact_n) > MAX_ABS_Z * row["stderr"]:
            problems.append(f"mc {law} {orders}: {row} against exact {exact_n} at N={N}")
        limit = refs.parse_poly(str(fluctuation_moment(orders)))
        problems += _limit_problems(law, orders, row["exact"], limit, b)
        wrong_b = {**b, 4: b[4] + 1}
        problems += _rejects(
            _limit_problems(law, orders, row["exact"], limit, wrong_b), f"{law} b4 + 1"
        )
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    commands: Callable[[int], list[list[str]]]
    check: Callable[[list[list[str]], list[Output]], list[str]]


WORKLOADS = {
    "cumulant_table": Workload(_cumulant_commands, _cumulant_check),
    "moment_check": Workload(_moment_commands, _moment_check),
    "finite_n_sweep": Workload(_finite_commands, _finite_check),
    "monte_carlo": Workload(_mc_commands, _mc_check),
}
