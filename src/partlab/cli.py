"""Command-line front end.

Subcommands: ``table`` (family values over a range, by either engine),
``verify`` (identity checks), ``map`` (bijection traces) and ``selftest``
(the full acceptance suite).

Exit codes: 0 success, 1 verification/selftest failure, 2 usage error,
3 resource limit, 4 domain violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import bijections, families
from .errors import DomainError, PartlabError, ResourceLimitError
from .partition import format_partition, parse_partition

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_DOMAIN = 4


def _collect_params(args: argparse.Namespace) -> dict[str, int]:
    return {name: getattr(args, name) for name in families.PARAM_NAMES
            if getattr(args, name, None) is not None}


class _UsageError(ValueError):
    """Bad command arguments (exit code 2)."""


def _parse_range(tokens: list[str]) -> tuple[int, int]:
    ends = tokens[0].split("..") if len(tokens) == 1 else tokens
    try:
        lo, hi = map(int, ends * 2 if len(ends) == 1 else ends)
    except ValueError:
        raise _UsageError(f"expected N, N..M or two endpoints, got {tokens!r}") from None
    return lo, hi


def _emit_rows(rows: list[tuple[int, int]], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([{"n": n, "value": v} for n, v in rows]))
    elif fmt == "pretty":
        width = max((len(str(n)) for n, _ in rows), default=1)
        print(f"{'n':>{width}}  value")
        for n, v in rows:
            print(f"{n:>{width}}  {v}")
    else:
        for n, v in rows:
            print(f"{n},{v}")


def _cmd_table(args: argparse.Namespace) -> int:
    # Family/parameter problems are bad arguments here, not domain violations.
    try:
        params = _collect_params(args)
        lo, hi = _parse_range(args.range)
        if lo < 0 or hi < lo:
            raise _UsageError(f"bad range {lo}..{hi}")
        values = families.values(args.family, hi, params, args.engine)
        rows = [(n, values[n]) for n in range(lo, hi + 1)]
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc
    _emit_rows(rows, args.format)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import identities

    if args.n_max is not None and args.n_max < 1:
        raise _UsageError(f"--n-max must be >= 1, got {args.n_max}")
    ids = None if args.identity == "all" else [args.identity]
    params = _collect_params(args)
    try:
        reports = identities.verify_cells(ids=ids, params=params or None,
                                          n_max=args.n_max, engine=args.engine,
                                          jobs=args.jobs)
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc
    if args.format == "json":
        print(identities.reports_to_json(reports))
    elif args.format == "csv":
        print(identities.reports_to_csv(reports), end="")
    else:
        for r in reports:
            cell = identities.format_params(dict(r.params)) or "-"
            line = f"{r.id:12s} {cell:18s} engine={r.engine:6s} n_max={r.n_max:<4d} {r.status}"
            if r.counterexample:
                ce = r.counterexample
                line += f"  first at n={ce.n}: lhs={ce.lhs} rhs={ce.rhs}"
            print(line)
        for p, verdict in identities.orientation_verdicts(reports).items():
            print(f"orientation verdict (p={p}): {verdict}")
    return EXIT_FAIL if identities.failures(reports) else EXIT_OK


def _cmd_map(args: argparse.Namespace) -> int:
    partition = parse_partition(args.partition)
    params = _collect_params(args)
    try:
        bijections.get_bijection(args.bijection, params)
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc
    trace = bijections.trace(args.bijection, params, partition, args.inverse)
    if args.format == "json":
        payload = {
            "input": format_partition(trace.input),
            "output": format_partition(trace.output),
            "steps": [
                {"label": s.label, "value": format_partition(s.value)}
                for s in trace.steps
            ],
        }
        print(json.dumps(payload))
    else:
        for step in trace.steps:
            print(f"{step.label}: {format_partition(step.value)}")
        print(format_partition(trace.output))
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import acceptance

    results = acceptance.run_all(numbers=args.only, echo=print)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


class _IdentityIdsHelp(argparse.HelpFormatter):
    """Reads the identity ids only when ``verify``'s help prints, so the
    other commands never load the identity layer."""

    def _get_help_string(self, action: argparse.Action) -> str:
        from . import identities

        return action.help.replace("{ids}", ", ".join(identities.identity_ids()))


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for name in families.PARAM_NAMES:
        parser.add_argument(f"--{name}", type=int, default=None,
                            help=f"family/identity parameter {name}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partlab",
        description="Partition-identity verification lab: enumeration oracle, "
                    "series engine, bijections and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="tabulate a counting family over a range of n")
    p_table.add_argument("family", help="family identifier, e.g. d_e, a_r, f_pkr")
    p_table.add_argument("range", nargs="+", help="N, N..M, or two endpoints")
    _add_param_flags(p_table)
    p_table.add_argument("--engine", choices=("enum", "series"), default="enum")
    p_table.add_argument("--format", choices=("csv", "json", "pretty"), default="csv")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="check registered identities",
                              formatter_class=_IdentityIdsHelp)
    p_verify.add_argument("identity", help="identity id ({ids}) or 'all'")
    _add_param_flags(p_verify)
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--engine", choices=("enum", "series", "both"), default=None)
    p_verify.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty")
    p_verify.add_argument("--jobs", type=int, default=1, help="parallel verification cells")
    p_verify.set_defaults(func=_cmd_verify)

    p_map = sub.add_parser("map", help="apply a bijection and print its trace")
    p_map.add_argument("bijection", choices=tuple(bijections.BIJECTIONS))
    p_map.add_argument("partition", help="partition text, e.g. '13^10,7^30,1^11' or '-'")
    _add_param_flags(p_map)
    p_map.add_argument("--inverse", action="store_true", help="apply the inverse direction")
    p_map.add_argument("--format", choices=("json", "pretty"), default="pretty")
    p_map.set_defaults(func=_cmd_map)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--only", type=int, action="append", default=None,
                        help="run only the given criterion number (repeatable)")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except bijections.LemmaViolation as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, PartlabError) as exc:
        # Bad partitions, unknown ids, families without a closed form and
        # _UsageError: none is a DomainError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
