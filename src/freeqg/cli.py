"""Batch command-line interface with deterministic JSON-lines / CSV output.

Every invocation emits one output record ``{"command", "params", "rows"}``.
JSON records are serialized with sorted keys, floats at 15 significant
digits, and big integers as strings, so identical invocations are
byte-identical.  Exit codes: 0 success, 1 verification failure, 2 parse
error, 3 domain error, 4 resource cap (a unitary table past ``--entry-cap``,
a dimension too long to print, or an orthogonal ``fuse`` product of more
than ``DEFAULT_ENTRY_CAP`` summands).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import re
import sys
from itertools import chain, groupby, islice, repeat, starmap

from ._util import as_int, as_nonneg_int
from .chebyshev import DEFAULT_T0, decay_constant, dim_orth
from .errors import DomainError, ResourceCapError, WordParseError
from .free_unitary import alternating_form, dim_unitary, fuse_unitary_many, word_parse
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
    """Serialize one JSON value: sorted keys, floats at 15 significant digits."""
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
        slot, cells = _cells(value, "jsonl")
        return "[" + ",".join(cells if slot == "%s" else map(slot.__mod__, cells)) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{_json_string(str(k))}:{_json_token(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


#: The JSON escape of each character that needs one, a regex that finds them, and their bytes.
_ESCAPES = {chr(i): f"\\u{i:04x}" for i in range(0x20)} | {'"': '\\"', "\\": "\\\\"}
_NEEDS_ESCAPE = re.compile("[" + re.escape("".join(_ESCAPES)) + "]")
_ESCAPE_BYTES = "".join(_ESCAPES).encode("ascii")


def _json_string(s: str) -> str:
    if _NEEDS_ESCAPE.search(s):
        s = _NEEDS_ESCAPE.sub(lambda match: _ESCAPES[match[0]], s)
    return '"' + s + '"'


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


class Runs(tuple):
    """A column given as ``(value, count)`` runs: ``value`` on the next ``count >= 1`` rows."""


def _cells(column, fmt: str):
    """``(slot, cells)``: one column's cells in fmt, as _json_token or _csv_cell writes each value.

    ``slot`` holds one cell in a row template: ``'"%s"'`` for JSON strings
    that need no escape, None for CSV cells that csv.writer may quote, else
    ``"%s"``.  Exact floats that repeat are formatted once per distinct
    value, unless a zero is among them (0.0 == -0.0 prints two ways); exact
    ints and plain strings skip the per-value dispatch.  A :class:`Runs`
    column's cells are Runs of ``(text, count)``.
    """
    kinds = set(map(type, column))
    if kinds == {float}:
        text = "%.15g".__mod__  # format(value, ".15g"), without a Python call per value
        distinct = set(column)
        if 0.0 in distinct or len(distinct) == len(column):
            return "%s", map(text, column)
        return "%s", map(dict(zip(distinct, map(text, distinct))).__getitem__, column)
    if kinds == {int}:
        return "%s", map(str, column)
    # no JSON escape if deleting _ESCAPE_BYTES keeps the length (non-ASCII encodes to "?"); what
    # csv.writer may quote (, " \r \n) or refuse (NUL, on 3.10) is "," or a JSON escape
    if kinds == {str} and len((joined := "".join(column)).encode("ascii", "replace").translate(
            None, _ESCAPE_BYTES)) == len(joined) and (fmt == "jsonl" or "," not in joined):
        return ('"%s"' if fmt == "jsonl" else "%s"), column
    if isinstance(column, Runs):
        slot, texts = _cells([value for value, _ in column], fmt)
        return slot, Runs(zip(texts, (count for _, count in column)))
    if fmt == "csv":
        return None, column if kinds == {str} else map(_csv_cell, column)
    return "%s", map(_json_token, column)


def _emit(record: dict, fmt: str, stream) -> None:
    """Write a record ``{"command", "params", "columns"}`` as one JSON line or a CSV table.

    ``columns`` maps each key to a list, all of one length >= 1; one key may
    map to :class:`Runs` over as many rows instead.  Each column's cells are
    built once by :func:`_cells`.  A run's rows are one join of the row
    template's literal pieces, the run's cell among them, and the other
    cells, and go to ``stream.write`` as one chunk; a record without runs is
    one run.  A JSON row is ``{"key":…}`` in
    ``{"command":…,"params":…,"rows":[…]}``.  csv.writer writes the CSV
    header, and the rows too if a cell may need quoting or there is one
    column (it quotes a lone "").
    """
    columns = record["columns"]
    keys = sorted(columns)
    slots, cells = [], []
    for key in keys:  # a JSON slot carries its key, %-escaped
        slot, column = _cells(columns[key], fmt)
        slots.append(slot if fmt == "csv" else _json_string(key).replace("%", "%%") + ":" + slot)
        cells.append(column)
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(keys)
        wrap, lead, sep, tail = "%s\n", "", "", ""
    else:
        wrap, sep, tail = "{%s}", ",", "]}\n"
        lead = ('{"command":' + _json_token(record["command"])
                + ',"params":' + _json_token(record["params"]) + ',"rows":[')
    kinds = list(map(type, cells))
    if fmt == "csv" and (None in slots or len(keys) == 1):
        writer.writerows(zip(*(chain.from_iterable(starmap(repeat, column))
                               if kind is Runs else column for kind, column in zip(kinds, cells))))
        return
    # the template split at a "\0" put in each slot; no key holds one (JSON escapes it)
    pieces = (wrap % ",".join(slots) % (("\0",) * len(slots))).split("\0")
    if Runs in kinds:
        at = kinds.index(Runs)
        runs = cells.pop(at)
    else:  # one run of every row, its empty cell in an empty slot before the first
        at, runs, pieces = 0, [("", len(columns[keys[0]]))], ["", *pieces]
    cells = list(map(iter, cells))
    for text, n in runs:
        head, *rest = pieces[:at] + [pieces[at] + text + pieces[at + 1]] + pieces[at + 2:]
        parts = [chain((lead + head,), repeat(sep + head))]
        for column, piece in zip(cells, rest):
            parts += (column, repeat(piece))
        stream.write("".join(chain.from_iterable(islice(zip(*parts), n))))
        lead = sep
    stream.write(tail)


# ---------------------------------------------------------------------------
# command handlers

def _parse_label(token: str, group: Group):
    if group is Group.ORTH:
        try:
            return int(token)
        except ValueError:
            raise CliUsageError(f"expected an integer level, got {token!r}") from None
    return word_parse(token)


def _decimal_dims(group: Group, labels, N) -> list[str]:
    """The dimensions of the labels at N, as decimal strings.

    ``str`` refuses an int of more than ``sys.get_int_max_str_digits()``
    digits (0 sets no limit), so a label whose dimension reaches 10**limit
    raises ResourceCapError before any string is made.  A dimension is at
    most N**length, so a shorter label passes at once.  One whose lower
    bound reaches 10**(limit + 1) is refused at once, a digit clear of the
    bound's rounding: u_k(2) = k + 1, and u_k(N) >= q(N)**k >= (N - 1)**k
    for N >= 3.  Any other is decided on its exact dimension, which the
    lru_cache of _dim_orth or _dim_unitary keeps for the output.
    """
    orth = group is Group.ORTH
    limit = sys.get_int_max_str_digits() or math.inf
    N = as_int(N, "N", 2)
    dim = dim_orth if orth else dim_unitary
    for label in labels:
        length = as_nonneg_int(label, "n") if orth else len(label)
        if length < limit / math.log10(N):
            continue
        if N > 2:  # int against float: no OverflowError at any length
            past = length >= (limit + 1) / math.log10(N - 1)
        else:  # u_k(2) = k + 1
            blocks = (length,) if orth else alternating_form(label).blocks
            past = sum(math.log10(k + 1) for k in blocks) >= limit + 1
        if past or dim(label, N) >= 10**limit:
            name = repr(label) if orth or length <= 40 else f"{label[:20]!r}... of {length} letters"
            raise ResourceCapError(f"the dimension at label {name} for N={N} "
                                   f"has more than {limit} decimal digits")
    return [str(dim(label, N)) for label in labels]


def cmd_fuse(args) -> tuple[dict, int]:
    group = Group.coerce(args.group)
    labels = [_parse_label(tok, group) for tok in args.operands]
    if group is Group.ORTH:  # the summands are low, low + 2, ..., total: count them first
        total = sum(as_nonneg_int(level, "label") for level in labels)
        low = max(2 * max(labels) - total, total % 2)
        if (total - low) // 2 + 1 > DEFAULT_ENTRY_CAP:
            raise ResourceCapError(f"the product has more than {DEFAULT_ENTRY_CAP} summands")
    fuse_many = fuse_orth_many if group is Group.ORTH else fuse_unitary_many
    terms = fuse_many(labels)
    columns = {"label": list(map(str, terms)), "multiplicity": list(map(str, terms.values()))}
    if args.N is not None:
        columns["dimension"] = _decimal_dims(group, terms, args.N)
    params = {"group": group.value, "operands": [str(l) for l in labels], "N": args.N}
    return {"command": "fuse", "params": params, "columns": columns}, EXIT_OK


def cmd_dims(args) -> tuple[dict, int]:
    group = Group.coerce(args.group)
    labels = [_parse_label(tok, group) for tok in args.labels]
    columns = {"label": list(map(str, labels)), "dimension": _decimal_dims(group, labels, args.N)}
    params = {"group": group.value, "N": args.N}
    return {"command": "dims", "params": params, "columns": columns}, EXIT_OK


def cmd_coeffs(args) -> tuple[dict, int]:
    group = Group.coerce(args.group)
    table = truncated_coeffs(group, args.t, args.m, args.N, t0=args.t0, entry_cap=args.entry_cap)
    maxima = table.level_maxima()
    entries = table.entries
    columns = {
        "label": list(map(str, entries)) if group is Group.ORTH else list(entries),
        "level": (list(entries) if group is Group.ORTH
                  else Runs((n, len(list(run))) for n, run in groupby(map(len, entries)))),
        "coeff": list(entries.values()),
    }
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
    return {"command": "coeffs", "params": params, "columns": columns}, EXIT_OK


def cmd_certify(args) -> tuple[dict, int]:
    group = Group.coerce(args.group)
    rd_name, kind = ("D", "orthogonal") if group is Group.ORTH else ("R", "unitary")
    rd_value = getattr(args, rd_name)
    if rd_value is None:
        raise CliUsageError(
            f"--group {group.value} requires --{rd_name} ({kind} rapid-decay constant)")
    bounds = BoundParams(**{rd_name: rd_value}, t0=args.t0)
    cert = choose_truncation(args.t, args.eps, args.N, group, bounds)
    columns = {"m": [cert.m], "tail_bound": [cert.tail_bound], "eps": [cert.target_eps]}
    params = {
        "group": group.value,
        "t": float(args.t),
        "N": args.N,
        "t0": float(args.t0),
        rd_name: float(rd_value),
    }
    return {"command": "certify", "params": params, "columns": columns}, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    suite = args.suite
    kwargs = {
        "fusion": {"max_label": args.max_label, "unit_max_len": min(args.max_len, 6)},
        "moments": {"subdivisions": args.subdivisions},
        "forms": {"max_len": args.max_len},
        "dims": {"max_label": args.max_label, "exhaustive_len": min(args.max_len, 6),
                 "random_pairs": args.samples, "seed": args.seed},
        "decay": {"ns": tuple(args.N) if args.N else (3, 4, 5, 6), "grid_points": args.grid,
                  "max_len": args.max_len},
    }[suite]
    names, cases, failures = map(list, zip(*SUITES[suite](**kwargs)))
    columns = {"check": names, "cases": cases, "failures": failures}
    params = {"suite": suite, "seed": args.seed}
    code = EXIT_VERIFY if any(failures) else EXIT_OK
    return {"command": "verify", "params": params, "columns": columns}, code


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
    grouped = argparse.ArgumentParser(add_help=False, parents=[common])
    grouped.add_argument("--group", choices=("o", "u"), required=True)
    net = argparse.ArgumentParser(add_help=False, parents=[grouped])  # the net at t and N
    net.add_argument("--t", type=float, required=True)
    net.add_argument("--N", type=int, required=True)
    net.add_argument("--t0", type=float, default=DEFAULT_T0)

    parser = argparse.ArgumentParser(
        prog="freeqg",
        description="Fusion rings, quantum dimensions, and multiplier bound certificates "
                    "for free orthogonal and free unitary quantum groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuse", parents=[grouped], help="decompose a tensor product of irreducibles")
    p.add_argument("--N", type=int, default=None, help="also report dimensions at this N")
    p.add_argument("operands", nargs="+",
                   help="levels (group o) or words over a/b (group u); '' is the unit word")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("dims", parents=[grouped], help="exact quantum dimensions")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("labels", nargs="+")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("coeffs", parents=[net], help="central multiplier coefficient table")
    p.add_argument("--m", type=int, required=True, help="truncation level")
    p.add_argument("--entry-cap", type=int, default=DEFAULT_ENTRY_CAP, dest="entry_cap")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("certify", parents=[net],
                       help="smallest truncation level with tail bound <= eps")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--D", type=float, default=None, help="orthogonal rapid-decay constant")
    p.add_argument("--R", type=float, default=None, help="unitary rapid-decay constant")
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
