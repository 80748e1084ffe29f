"""Batch command-line interface with deterministic JSON-lines / CSV output.

Every invocation emits one output record ``{"command", "params", "rows"}``.
JSON records are serialized with sorted keys, floats at 15 significant
digits, and big integers as strings, so identical invocations are
byte-identical.  Exit codes: 0 success, 1 verification failure, 2 parse
error, 3 domain error, 4 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import re
import sys

from .chebyshev import DEFAULT_T0, decay_constant, dim_orth
from .errors import DomainError, ResourceCapError, WordParseError
from .free_unitary import dim_unitary, fuse_unitary_many, word_parse
from .fusion_orth import fuse_orth_many
from .multipliers import (
    DEFAULT_ENTRY_CAP,
    BoundParams,
    Group,
    choose_truncation,
    truncated_coeffs,
)
from .verify import SUITES

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4


class CliUsageError(Exception):
    """Bad command-line input that argparse could not catch itself."""


# ---------------------------------------------------------------------------
# deterministic serialization

def _json_token(value) -> str:
    """Serialize one JSON value: sorted keys, floats at 15 significant digits.

    The fast paths give the same bytes as the general code.  Floats, strings
    and ints are dispatched on their exact type before the ``isinstance``
    chain (``bool`` is not ``int`` there, so it still prints true/false).
    A list of dicts that share one key set of strings, such as a record's
    rows, sorts its keys and builds the ``"key":`` prefixes once and emits
    each row with one join.  :func:`_json_string` skips its escape loop when
    a regex finds no quote, backslash or control character.
    """
    kind = type(value)
    if kind is float:
        return format(value, ".15g")
    if kind is str:
        return _json_string(value)
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".15g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, (list, tuple)):
        if _is_rows(value):
            return _json_rows(value)
        return "[" + ",".join(_json_token(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{_json_string(str(k))}:{_json_token(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _is_rows(values) -> bool:
    if not values or type(values[0]) is not dict:
        return False
    keys = values[0].keys()
    return all(type(k) is str for k in keys) and all(
        type(row) is dict and row.keys() == keys for row in values
    )


def _json_rows(rows) -> str:
    keys = sorted(rows[0])
    prefixes = [(key, _json_string(key) + ":") for key in keys]
    token = _json_token
    return "[" + ",".join(
        "{" + ",".join([prefix + token(row[key]) for key, prefix in prefixes]) + "}"
        for row in rows
    ) + "]"


#: Characters that _json_string must escape.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _json_string(s: str) -> str:
    if not _NEEDS_ESCAPE.search(s):
        return '"' + s + '"'
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def _emit(record: dict, fmt: str, stream) -> None:
    if fmt == "csv":
        rows = record["rows"]
        keys = sorted({key for row in rows for key in row})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_csv_cell(row.get(key)) for key in keys])
        stream.write(buf.getvalue())
    else:
        stream.write(_json_token(record) + "\n")


# ---------------------------------------------------------------------------
# command handlers

def _parse_label(token: str, group: Group):
    if group is Group.ORTH:
        try:
            return int(token)
        except ValueError:
            raise CliUsageError(f"expected an integer level, got {token!r}") from None
    return word_parse(token)


def cmd_fuse(args) -> tuple[dict, int]:
    group = Group.coerce(args.group)
    labels = [_parse_label(tok, group) for tok in args.operands]
    orth = group is Group.ORTH
    fuse_many, dim = (fuse_orth_many, dim_orth) if orth else (fuse_unitary_many, dim_unitary)
    rows = []
    for label, mult in fuse_many(labels).items():
        row = {"label": str(label), "multiplicity": str(mult)}
        if args.N is not None:
            row["dimension"] = str(dim(label, args.N))
        rows.append(row)
    params = {"group": group.value, "operands": [str(l) for l in labels], "N": args.N}
    return {"command": "fuse", "params": params, "rows": rows}, EXIT_OK


def cmd_dims(args) -> tuple[dict, int]:
    group = Group.coerce(args.group)
    labels = [_parse_label(tok, group) for tok in args.labels]
    dim = dim_orth if group is Group.ORTH else dim_unitary
    rows = [{"label": str(label), "dimension": str(dim(label, args.N))} for label in labels]
    params = {"group": group.value, "N": args.N}
    return {"command": "dims", "params": params, "rows": rows}, EXIT_OK


def cmd_coeffs(args) -> tuple[dict, int]:
    group = Group.coerce(args.group)
    table = truncated_coeffs(group, args.t, args.m, args.N, t0=args.t0, entry_cap=args.entry_cap)
    maxima = table.level_maxima()
    rows = [
        {"label": str(label), "level": (label if group is Group.ORTH else len(label)), "coeff": value}
        for label, value in table.entries.items()
    ]
    params = {
        "group": group.value,
        "t": float(args.t),
        "m": args.m,
        "N": args.N,
        "t0": float(args.t0),
        "decay_c": decay_constant(args.t0),
        "level_max": [maxima.get(n, 0.0) for n in range(args.m + 1)],
    }
    if group is Group.UNIT:
        params["r"] = table.r
    return {"command": "coeffs", "params": params, "rows": rows}, EXIT_OK


def cmd_certify(args) -> tuple[dict, int]:
    group = Group.coerce(args.group)
    rd_name, kind = ("D", "orthogonal") if group is Group.ORTH else ("R", "unitary")
    rd_value = getattr(args, rd_name)
    if rd_value is None:
        raise CliUsageError(
            f"--group {group.value} requires --{rd_name} ({kind} rapid-decay constant)")
    bounds = BoundParams(**{rd_name: rd_value}, t0=args.t0)
    cert = choose_truncation(args.t, args.eps, args.N, group, bounds)
    rows = [{"m": cert.m, "tail_bound": cert.tail_bound, "eps": cert.target_eps}]
    params = {
        "group": group.value,
        "t": float(args.t),
        "N": args.N,
        "t0": float(args.t0),
        rd_name: float(rd_value),
    }
    return {"command": "certify", "params": params, "rows": rows}, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    suite = args.suite
    kwargs = {
        "fusion": {"max_label": args.max_label, "unit_max_len": min(args.max_len, 6)},
        "moments": {"max_m": 8, "subdivisions": args.subdivisions},
        "forms": {"max_len": args.max_len},
        "dims": {"max_label": args.max_label, "exhaustive_len": min(args.max_len, 6),
                 "random_pairs": args.samples, "seed": args.seed},
        "decay": {"ns": tuple(args.N) if args.N else (3, 4, 5, 6), "grid_points": args.grid,
                  "max_len": args.max_len},
    }[suite]
    checks = SUITES[suite](**kwargs)
    rows = [{"check": name, "cases": cases, "failures": failures} for name, cases, failures in checks]
    total_failures = sum(failures for _, _, failures in checks)
    params = {"suite": suite, "seed": args.seed}
    code = EXIT_OK if total_failures == 0 else EXIT_VERIFY
    return {"command": "verify", "params": params, "rows": rows}, code


# ---------------------------------------------------------------------------
# parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones.

    It is not built at import time: that would bind ``set_defaults(func=...)``
    to the ``cmd_*`` handlers before anything wrapping them at their module
    bindings gets the chance.  Reuse is safe because ``parse_args`` returns a
    fresh namespace each time.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                        help="output format (default: jsonl)")

    parser = argparse.ArgumentParser(
        prog="freeqg",
        description="Fusion rings, quantum dimensions, and multiplier bound certificates "
                    "for free orthogonal and free unitary quantum groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", parents=[common], help="decompose a tensor product of irreducibles")
    p.add_argument("--group", choices=("o", "u"), required=True)
    p.add_argument("--N", type=int, default=None, help="also report dimensions at this N")
    p.add_argument("operands", nargs="+",
                   help="levels (group o) or words over a/b (group u); '' is the unit word")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("dims", parents=[common], help="exact quantum dimensions")
    p.add_argument("--group", choices=("o", "u"), required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("labels", nargs="+")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("coeffs", parents=[common], help="central multiplier coefficient table")
    p.add_argument("--group", choices=("o", "u"), required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="truncation level")
    p.add_argument("--t0", type=float, default=DEFAULT_T0)
    p.add_argument("--entry-cap", type=int, default=DEFAULT_ENTRY_CAP, dest="entry_cap")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("certify", parents=[common],
                       help="smallest truncation level with tail bound <= eps")
    p.add_argument("--group", choices=("o", "u"), required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--D", type=float, default=None, help="orthogonal rapid-decay constant")
    p.add_argument("--R", type=float, default=None, help="unitary rapid-decay constant")
    p.add_argument("--t0", type=float, default=DEFAULT_T0)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", parents=[common], help="run an invariant suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-len", type=int, default=8, dest="max_len",
                   help="word-length cutoff (forms default 10 via --max-len 10)")
    p.add_argument("--max-label", type=int, default=10, dest="max_label")
    p.add_argument("--grid", type=int, default=20, help="points per t-grid (decay)")
    p.add_argument("--N", type=int, action="append", default=None,
                   help="dimension(s) for the decay suite; repeatable")
    p.add_argument("--samples", type=int, default=10_000, help="random pairs (dims)")
    p.add_argument("--subdivisions", type=int, default=10_000, help="quadrature panels (moments)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        record, code = args.func(args)
    except CliUsageError as exc:
        print(f"freeqg: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except WordParseError as exc:
        print(f"freeqg: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"freeqg: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceCapError as exc:
        print(f"freeqg: resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    _emit(record, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
