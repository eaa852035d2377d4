"""Command line front end.

Subcommands
-----------
moments     print the limiting fluctuation moment for a trace-power tuple
cumulants   print higher-order free cumulants (one key, or the nonzero table)
enumerate   list combinatorial families (annular pairings, partitioned
            permutations, obstruction partitions, ...)
oracle      cross-check the closed-form moment against the summation oracle
mc          Monte Carlo estimate of a fluctuation moment at finite dimension
finite-n    exact finite-dimension moment as a polynomial in the entry
            cumulants

Exit status: 0 on success, 1 when a requested cross-check fails, 2 on
malformed input or a request outside the supported bounds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .annular import NC, classify_relative, gamma_of
from .errors import CapabilityError
from .graphs import build_t, obstruction_set
from .moments import (
    DEFAULT_ORACLE_BOUND,
    MAX_CUMULANT_ORDER,
    MAX_CUMULANT_PARTS,
    finite_n_moment,
    fluctuation_moment,
    free_cumulant,
    free_cumulants,
    moment_oracle,
)
from .montecarlo import empirical_fluctuation, beta_assignment, parse_law
from .partitioned import enumerate_ps_nc2_loopfree
from .permutations import enumerate_permutations

_FORMATS = ("text", "json", "csv")

# `enumerate nc` scans all of S_m; keep the ground set small enough that the
# command stays interactive.
_ENUM_NC_CAP = 8
_ENUM_PAIRING_CAP = 12


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad --orders value {text!r}; expected e.g. 2,2,4")
    if not orders or any(k < 1 for k in orders):
        raise ValueError("--orders entries must be positive integers")
    return orders


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str],
          csv_header: list[str], csv_rows: list[list]) -> None:
    if args.format == "json":
        print(json.dumps(payload, separators=(",", ":")))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        sys.stdout.write(buf.getvalue())
    else:
        for line in text_lines:
            print(line)


def _maybe_dump_graph(args: argparse.Namespace, shape: tuple[int, ...]) -> None:
    path = getattr(args, "dump_graph", None)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(build_t(shape).to_text())


def _cmd_moments(args: argparse.Namespace) -> int:
    orders = _parse_orders(args.orders)
    poly = fluctuation_moment(orders)
    _maybe_dump_graph(args, orders)
    rendered = str(poly)
    _emit(
        args,
        {"orders": list(orders), "alpha": rendered},
        [rendered],
        ["orders", "alpha"],
        [[",".join(map(str, orders)), rendered]],
    )
    return 0


def _cumulant_key(orders: tuple[int, ...]) -> str:
    return ",".join(map(str, orders))


def _cmd_cumulants(args: argparse.Namespace) -> int:
    if args.orders is not None:
        orders = _parse_orders(args.orders)
        rendered = str(free_cumulant(orders))
        _emit(
            args,
            {"orders": list(orders), "kappa": rendered},
            [rendered],
            ["orders", "kappa"],
            [[_cumulant_key(orders), rendered]],
        )
        return 0
    table = free_cumulants(MAX_CUMULANT_PARTS, MAX_CUMULANT_ORDER)
    rows = [
        (key, str(poly))
        for key, poly in sorted(table.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        if not poly.is_zero()
    ]
    _emit(
        args,
        {_cumulant_key(key): rendered for key, rendered in rows},
        [f"{_cumulant_key(key)}: {rendered}" for key, rendered in rows],
        ["orders", "kappa"],
        [[_cumulant_key(key), rendered] for key, rendered in rows],
    )
    return 0


def _enumerate_elements(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Return (json payload skeleton, element strings) for `enumerate`."""
    family = args.family
    if family == "an":
        if args.n is None:
            raise ValueError("enumerate an requires --n")
        members = obstruction_set(args.n)
        return {"n": args.n}, [str(part) for part in members]
    if args.orders is None:
        raise ValueError(f"enumerate {family} requires --orders")
    shape = _parse_orders(args.orders)
    total = sum(shape)
    if family == "nc":
        if total > _ENUM_NC_CAP:
            raise CapabilityError(
                f"enumerate nc supports totals up to {_ENUM_NC_CAP}, got {total}"
            )
        g = gamma_of(shape)
        elems = [
            str(p)
            for p in enumerate_permutations(total)
            if classify_relative(p, g) == NC
        ]
        return {"shape": list(shape)}, elems
    if total > _ENUM_PAIRING_CAP:
        raise CapabilityError(
            f"enumerate {family} supports totals up to {_ENUM_PAIRING_CAP}, "
            f"got {total}"
        )
    if family == "nc2":
        from .annular import enumerate_nc2

        return {"shape": list(shape)}, [str(s) for s in enumerate_nc2(shape)]
    if family == "psnc2lf":
        return (
            {"shape": list(shape)},
            [str(pp) for pp in enumerate_ps_nc2_loopfree(shape)],
        )
    raise ValueError(f"unknown family {family!r}")


def _cmd_enumerate(args: argparse.Namespace) -> int:
    payload, elems = _enumerate_elements(args)
    payload.update({"count": len(elems), "elements": elems})
    _emit(
        args,
        payload,
        [str(len(elems))] + elems,
        ["element"],
        [[e] for e in elems],
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    orders = _parse_orders(args.orders)
    _maybe_dump_graph(args, orders)
    theorem = fluctuation_moment(orders)
    reference = moment_oracle(orders, bound=args.oracle_bound)
    ok = theorem == reference
    verdict = "PASS" if ok else "FAIL"
    _emit(
        args,
        {
            "orders": list(orders),
            "theorem": str(theorem),
            "oracle": str(reference),
            "verdict": verdict,
        },
        [f"theorem: {theorem}", f"oracle:  {reference}", verdict],
        ["orders", "theorem", "oracle", "verdict"],
        [[",".join(map(str, orders)), str(theorem), str(reference), verdict]],
    )
    return 0 if ok else 1


def _cmd_mc(args: argparse.Namespace) -> int:
    orders = _parse_orders(args.orders)
    law = parse_law(args.law)
    result = empirical_fluctuation(
        law, args.dim, orders, samples=args.samples, seed=args.seed
    )
    exact = float(
        fluctuation_moment(orders).evaluate(beta_assignment(law))
    )
    stderr = result["stderr"]
    zscore = None
    if stderr == stderr and stderr > 0.0:  # not NaN and positive
        zscore = (result["estimate"] - exact) / stderr
    payload = {
        "orders": list(orders),
        "N": result["N"],
        "samples": result["samples"],
        "estimate": result["estimate"],
        "stderr": stderr,
        "exact": exact,
        "zscore": zscore,
    }
    text = [
        f"orders:   {','.join(map(str, orders))}",
        f"N:        {result['N']}",
        f"samples:  {result['samples']}",
        f"estimate: {result['estimate']:.6g}",
        f"stderr:   {stderr:.3g}",
        f"exact:    {exact:.6g}",
        f"zscore:   {'n/a' if zscore is None else format(zscore, '.3g')}",
    ]
    _emit(
        args,
        payload,
        text,
        list(payload),
        [[payload[k] for k in payload]],
    )
    return 0


def _cmd_finite_n(args: argparse.Namespace) -> int:
    orders = _parse_orders(args.orders)
    _maybe_dump_graph(args, orders)
    poly = finite_n_moment(orders, args.dim, bound=args.oracle_bound)
    rendered = str(poly)
    _emit(
        args,
        {"orders": list(orders), "N": args.dim, "alpha": rendered},
        [rendered],
        ["orders", "N", "alpha"],
        [[",".join(map(str, orders)), args.dim, rendered]],
    )
    return 0


def _add_common(sub: argparse.ArgumentParser, *, orders: bool = True) -> None:
    if orders:
        sub.add_argument("--orders", help="comma separated trace powers, e.g. 2,2")
    sub.add_argument(
        "--format", choices=_FORMATS, default="text", help="output format"
    )
    sub.add_argument(
        "--dump-graph",
        metavar="PATH",
        help="also write the base permutation graph for the shape to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerfluct",
        description="Global fluctuations of Wigner-type random matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mom = sub.add_parser("moments", help="limiting fluctuation moment")
    _add_common(p_mom)
    p_mom.set_defaults(func=_cmd_moments)

    p_cum = sub.add_parser("cumulants", help="higher-order free cumulants")
    _add_common(p_cum)
    p_cum.set_defaults(func=_cmd_cumulants)

    p_enum = sub.add_parser("enumerate", help="list combinatorial families")
    p_enum.add_argument(
        "family",
        choices=("nc", "nc2", "psnc2lf", "an"),
        help="nc: annular noncrossing permutations; nc2: noncrossing "
        "pairings; psnc2lf: loop-free partitioned pairings; an: "
        "obstruction partitions",
    )
    p_enum.add_argument("--n", type=int, help="half-order for the an family")
    _add_common(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_or = sub.add_parser("oracle", help="cross-check moments against the oracle")
    _add_common(p_or)
    p_or.add_argument(
        "--oracle-bound",
        type=int,
        default=DEFAULT_ORACLE_BOUND,
        help="largest total order the summation oracle will attempt",
    )
    p_or.set_defaults(func=_cmd_oracle)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate at finite dimension")
    _add_common(p_mc)
    p_mc.add_argument("--dim", type=int, default=64, help="matrix dimension N")
    p_mc.add_argument(
        "--samples", type=int, default=10_000, help="number of matrix samples"
    )
    p_mc.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_mc.add_argument(
        "--law",
        default="gue",
        help="entry law: gue | fixed-modulus:c | two-point:c1,c2,p",
    )
    p_mc.set_defaults(func=_cmd_mc)

    p_fin = sub.add_parser(
        "finite-n", help="exact finite-dimension fluctuation moment"
    )
    _add_common(p_fin)
    p_fin.add_argument("--dim", type=int, required=True, help="matrix dimension N")
    p_fin.add_argument(
        "--oracle-bound",
        type=int,
        default=DEFAULT_ORACLE_BOUND,
        help="largest total order the expansion will attempt",
    )
    p_fin.set_defaults(func=_cmd_finite_n)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
