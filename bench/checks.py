"""Checks of freeqg outputs that do not call the code under test.

Dimensions come from the integer recursions, coefficients from exact
rational arithmetic (``fractions.Fraction``) at the exact binary value of t,
and certificate bounds from the closed form of the tail supremum.  Each
``check_*`` function returns a list of problems; an empty list means the
request passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

from workloads import words

#: Relative size of one unit in the last place of a double.
ULP = 2.0**-52
#: Rows of each coefficient table compared with the exact value.
SAMPLED_ROWS = 3

VERIFY_CHECKS = {
    "fusion": ["orth_multiplicity_free", "orth_commutative", "orth_char_recursion",
               "orth_associative", "unit_multiplicity_free", "unit_conjugation_symmetry"],
    "moments": ["moment_triple_even", "moment_odd_zero"],
    "forms": ["form_oracle_equality", "form_shape"],
    "dims": ["orth_dim_consistency", "unit_dim_consistency_exhaustive",
             "unit_dim_consistency_random", "unit_dim_two_routes"],
    "decay": ["orth_coeff_decay", "unit_coeff_decay", "orth_coeff_monotone_in_t",
              "central_state_bound"],
}

_dim_cache: dict = {}


def dim_orth(n: int, N: int) -> int:
    """u_n(N) by the integer three-term recursion."""
    key = (n, N)
    if key not in _dim_cache:
        prev, cur = 1, N
        for _ in range(n - 1):
            prev, cur = cur, N * cur - prev
        _dim_cache[key] = 1 if n == 0 else cur
    return _dim_cache[key]


def dim_unit(w: str, N: int) -> int:
    """Dimension of the word w by the fusion recursion, letter by letter.

    d(w.s) = N d(w) - d(w minus its last letter) when w ends with the
    conjugate of s (the other letter), else N d(w).
    """
    prev, cur = 0, 1
    for i, letter in enumerate(w):
        correction = prev if i and w[i - 1] != letter else 0
        prev, cur = cur, N * cur - correction
    return cur


def form(w: str) -> tuple[int, list[int]]:
    """(number of nonzero circle exponents, block sizes) of the word w.

    Blocks are the maximal strictly alternating runs; a sign is nonzero at a
    leading 'a', a trailing 'b', and at every boundary between blocks.
    """
    if not w:
        return 0, []
    blocks, run = [], 1
    for i in range(1, len(w)):
        if w[i] == w[i - 1]:
            blocks.append(run)
            run = 1
        else:
            run += 1
    blocks.append(run)
    weight = (w[0] == "a") + (w[-1] == "b") + len(blocks) - 1
    return weight, blocks


def ratio_exact(n: int, t: float, N: int) -> Fraction:
    """u_n(t)/u_n(N) exactly, at the binary value of the double t.

    With t = p / 2**s the recursion runs on the integers 2**(s*n) * u_n(t),
    so the only fraction reduced is the final one.
    """
    t = Fraction(t)
    p, s = t.numerator, t.denominator.bit_length() - 1
    prev, cur = 1, p
    for _ in range(n - 1):
        prev, cur = cur, p * cur - (prev << 2 * s)
    return Fraction(1 if n == 0 else cur, dim_orth(n, N) << s * n)


def _q(x: Decimal) -> Decimal:
    return (x + (x * x - 4).sqrt()) / 2


def unit_coeff_exact(w: str, t: float, N: int) -> Decimal:
    """a_t(w) = r(t)**weight * prod u_k(t)/u_k(N), to 60 digits.

    The block product is exact; r(t) involves square roots and is evaluated
    in 60-digit decimal arithmetic.
    """
    weight, blocks = form(w)
    prod = Fraction(1)
    for k in blocks:
        prod *= ratio_exact(k, t, N)
    with localcontext() as ctx:
        ctx.prec = 60
        r = (1 - _q(Decimal(t)) ** -2) / (1 - _q(Decimal(N)) ** -2)
        return r**weight * Decimal(prod.numerator) / Decimal(prod.denominator)


def _close(value: float, exact, ulps: float) -> bool:
    """Whether the printed value is a double within ``ulps`` of ``exact``.

    The CLI prints doubles at 15 significant digits, which ``value`` parses
    back to; the printed decimal may sit half a unit of its 15th digit away
    from the double the program computed.
    """
    printed = Decimal(format(value, ".15g"))
    with localcontext() as ctx:
        ctx.prec = 60
        if isinstance(exact, Fraction):
            exact = Decimal(exact.numerator) / Decimal(exact.denominator)
        half_digit = Decimal(5).scaleb(printed.adjusted() - 15)
        return abs(printed - exact) <= half_digit + abs(exact) * Decimal(ulps * ULP)


def _near(a: float, b: float, rel: float = 1e-14) -> bool:
    return abs(a - b) <= rel * abs(b)


# ---------------------------------------------------------------------------
# certify

def tail_bound(t: float, N: int, m: int, K: float, t0: float) -> float:
    """pi*K/sqrt(6) * C_t0 * sup over n > m of (n+1)^2 (t/N)^n, in closed form.

    (n+1)^2 rho^n rises up to n+1 = -2/ln(rho) and falls after it, so the
    supremum sits at the first admissible level or next to that peak.
    """
    rho = t / N
    q0 = (t0 + math.sqrt(t0 * t0 - 4.0)) / 2.0
    c = 1.0 / (1.0 - q0**-2)
    peak = -2.0 / math.log(rho) - 1.0
    candidates = {m + 1} | {n for n in (math.floor(peak), math.ceil(peak)) if n > m}
    sup = max((n + 1) ** 2 * c * rho**n for n in candidates)
    return math.pi * K * sup / math.sqrt(6.0)


def check_certify(spec: dict, out: str) -> list[str]:
    record = json.loads(out)
    p, rows = record["params"], record["rows"]
    problems = []
    if record["command"] != "certify" or p["group"] != spec["group"] or p["N"] != spec["N"]:
        problems.append(f"params {p} do not echo the request")
    if not _near(float(p["t"]), spec["t"]) or not _near(float(p["D" if spec["group"] == "o" else "R"]), spec["K"]):
        problems.append(f"params {p} do not echo t or the rapid-decay constant")
    if len(rows) != 1:
        return problems + [f"expected one row, got {len(rows)}"]
    m, bound, eps = rows[0]["m"], float(rows[0]["tail_bound"]), float(rows[0]["eps"])
    if not _near(eps, spec["eps"]):
        problems.append(f"eps {eps} does not echo {spec['eps']}")
    if not bound <= spec["eps"] * (1 + 1e-14):
        problems.append(f"tail_bound {bound} > eps {spec['eps']}")
    own = tail_bound(spec["t"], spec["N"], m, spec["K"], spec["t0"])
    if not _near(bound, own, 1e-9):
        problems.append(f"tail_bound {bound} at m={m}, closed form gives {own}")
    if m > 0 and tail_bound(spec["t"], spec["N"], m - 1, spec["K"], spec["t0"]) <= spec["eps"] * (1 - 1e-9):
        problems.append(f"m={m} is not minimal: the bound at m-1 already meets eps")
    return problems


# ---------------------------------------------------------------------------
# coeffs

def _table_rows(out: str, fmt: str):
    """(params or None, [(label, level, coeff)]) from jsonl or csv output."""
    if fmt == "csv":
        reader = csv.reader(io.StringIO(out))
        header = next(reader)
        if header != ["coeff", "label", "level"]:
            raise ValueError(f"csv header {header}")
        return None, [(label, int(level), float(coeff)) for coeff, label, level in reader]
    record = json.loads(out)
    if record["command"] != "coeffs":
        raise ValueError(f"command {record['command']!r}")
    return record["params"], [(r["label"], r["level"], float(r["coeff"])) for r in record["rows"]]


def check_coeffs(spec: dict, out: str, rid: int) -> list[str]:
    group, t, N, m = spec["group"], spec["t"], spec["N"], spec["m"]
    params, rows = _table_rows(out, spec["format"])
    problems = []
    if params is not None and (params["group"] != group or params["N"] != N or params["m"] != m
                               or not _near(float(params["t"]), t)):
        problems.append(f"params {params['group']} t={params['t']} N={params['N']} m={params['m']} "
                        "do not echo the request")
    labels = [str(n) for n in range(m + 1)] if group == "o" else words(m)
    if [r[0] for r in rows] != labels:
        return problems + [f"labels differ from the {len(labels)} expected ones"]
    maxima: dict[int, float] = {}
    for label, level, value in rows:
        if level != (int(label) if group == "o" else len(label)):
            problems.append(f"row {label!r} has level {level}")
        if not 0.0 < value <= 1.0:
            problems.append(f"coefficient at {label!r} is {value}, outside (0, 1]")
        maxima[level] = max(maxima.get(level, 0.0), value)
    if rows[0][2] != 1.0:
        problems.append(f"trivial coefficient is {rows[0][2]}, not exactly 1")
    if params is not None and [float(x) for x in params["level_max"]] != [maxima[n] for n in range(m + 1)]:
        problems.append("level_max differs from the per-level maxima of the rows")
    rng = random.Random(rid)
    by_label = {r[0]: r[2] for r in rows} if group == "u" else None
    for label, level, value in rng.sample(rows, min(SAMPLED_ROWS, len(rows))):
        if group == "o":
            # One rounding per recursion step in u_n(t) and in u_n(N), one
            # for the division.
            exact, ulps = ratio_exact(level, t, N), 1 + 2 * level
        else:
            weight, blocks = form(label)
            exact = unit_coeff_exact(label, t, N)
            # Block ratios as above, one rounding per product, and r(t)
            # (square roots and divisions, a few ulps) raised to the weight.
            ulps = 2 * sum(blocks) + 2 * len(blocks) + 6 * (weight + 1)
            mirror = label[::-1].translate(str.maketrans("ab", "ba"))
            if by_label[mirror] != value:
                problems.append(f"a_t({label!r}) = {value} but a_t({mirror!r}) = {by_label[mirror]}")
        if not _close(value, exact, ulps):
            problems.append(f"coefficient at {label!r} is {value}, exact value {float(exact)!r} "
                            f"(tolerance {ulps} ulps)")
    return problems


# ---------------------------------------------------------------------------
# verify, dims, fuse

def _verify_cases(spec: dict) -> dict[str, int]:
    """Case counts each suite must report for the requested parameters."""
    suite = spec["suite"]
    if suite == "fusion":
        ml, nw = spec["max_label"], len(words(min(spec["max_len"], 6)))
        return {"orth_multiplicity_free": (ml + 1) ** 2, "orth_commutative": (ml + 1) ** 2,
                "orth_char_recursion": ml, "orth_associative": (ml + 1) ** 3,
                "unit_multiplicity_free": nw**2, "unit_conjugation_symmetry": nw**2}
    if suite == "moments":
        return {"moment_triple_even": 9, "moment_odd_zero": 9}
    if suite == "forms":
        nw = len(words(spec["max_len"]))
        return {"form_oracle_equality": nw, "form_shape": nw}
    if suite == "dims":
        nw = len(words(min(spec["max_len"], 6)))
        routes = len(words(min(min(spec["max_len"], 6) + 2, 8)))
        return {"orth_dim_consistency": 4 * (spec["max_label"] + 1) ** 2,
                "unit_dim_consistency_exhaustive": 2 * nw**2,
                "unit_dim_consistency_random": 2 * spec["samples"],
                "unit_dim_two_routes": 3 * (routes + spec["samples"] // 10)}
    grid = len(spec["N"]) * spec["grid"]
    return {"orth_coeff_decay": grid * 61, "unit_coeff_decay": grid * len(words(spec["max_len"])),
            "orth_coeff_monotone_in_t": grid * 20, "central_state_bound": grid * 61}


def check_verify(spec: dict, out: str) -> list[str]:
    record = json.loads(out)
    problems = []
    if record["command"] != "verify" or record["params"] != {"suite": spec["suite"], "seed": spec["seed"]}:
        problems.append(f"params {record['params']} do not echo the request")
    got = {row["check"]: (row["cases"], row["failures"]) for row in record["rows"]}
    if list(got) != VERIFY_CHECKS[spec["suite"]]:
        return problems + [f"checks {list(got)} differ from {VERIFY_CHECKS[spec['suite']]}"]
    for name, cases in _verify_cases(spec).items():
        if got[name] != (cases, 0):
            problems.append(f"{name}: (cases, failures) = {got[name]}, expected ({cases}, 0)")
    return problems


def _dim(label: str, group: str, N: int) -> int:
    return dim_orth(int(label), N) if group == "o" else dim_unit(label, N)


def check_dims(spec: dict, out: str) -> list[str]:
    record = json.loads(out)
    group, N = spec["group"], spec["N"]
    problems = []
    if record["command"] != "dims" or record["params"] != {"group": group, "N": N}:
        problems.append(f"params {record['params']} do not echo the request")
    if [row["label"] for row in record["rows"]] != spec["labels"]:
        return problems + ["labels do not echo the request"]
    for row in record["rows"]:
        if int(row["dimension"]) != _dim(row["label"], group, N):
            problems.append(f"dimension of {row['label']!r} at N={N} differs from the recursion")
    return problems


def fuse_orth_exact(levels: list[int]) -> dict[int, int]:
    """Multiset decomposition of a tensor product of orthogonal levels."""
    acc = {0: 1}
    for s in levels:
        nxt: dict[int, int] = {}
        for a, mult in acc.items():
            for b in range(abs(a - s), a + s + 1, 2):
                nxt[b] = nxt.get(b, 0) + mult
        acc = nxt
    return dict(sorted(acc.items()))


def check_fuse(spec: dict, out: str) -> list[str]:
    record = json.loads(out)
    group, N, labels = spec["group"], spec["N"], spec["labels"]
    p = record["params"]
    problems = []
    if record["command"] != "fuse" or p != {"group": group, "N": N, "operands": labels}:
        problems.append(f"params {p} do not echo the request")
    rows = record["rows"]
    if group == "o":
        got = {int(row["label"]): int(row["multiplicity"]) for row in rows}
        if got != fuse_orth_exact([int(x) for x in labels]):
            problems.append("decomposition differs from the fusion rule")
    total = sum(len(x) for x in labels) if group == "u" else None
    summed = 0
    for row in rows:
        dim = _dim(row["label"], group, N)
        if int(row["dimension"]) != dim:
            problems.append(f"dimension of {row['label']!r} at N={N} differs from the recursion")
        if total is not None and (len(row["label"]) > total or (total - len(row["label"])) % 2):
            problems.append(f"summand {row['label']!r} cannot occur in the product")
        summed += int(row["multiplicity"]) * dim
    product_dim = math.prod(_dim(x, group, N) for x in labels)
    if summed != product_dim:
        problems.append(f"dimensions are not additive: {product_dim} vs {summed}")
    return problems


def check(kind: str, spec: dict, out: str, rid: int) -> list[str]:
    """Problems found in the stdout of a request that exited as expected."""
    if kind == "coeffs-cap":
        return [] if out == "" else ["a refused table still wrote to stdout"]
    try:
        if kind == "coeffs":
            return check_coeffs(spec, out, rid)
        return {"certify": check_certify, "verify": check_verify, "dims": check_dims,
                "fuse": check_fuse}[kind](spec, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
