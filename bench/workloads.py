"""Seeded request streams for the three benchmark workloads.

A workload is an endless stream of blocks of ``freeqg`` argv lists.  Block
``b`` of seed ``s`` is drawn from its own ``random.Random("<workload>:s:b")``,
so any prefix of the stream is reproducible and does not depend on how many
blocks a run reaches.  Inside a block the parameters that set a request's cost
are stratified and drawn in antithetic pairs (``u`` and ``1 - u`` inside one
stratum).  The requests stay random, but every block carries nearly the same
work, so the figures of a run do not hinge on one lucky or unlucky draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import product

#: Default decay anchor of the CLI; certify and coeffs requests rely on it.
T0 = 2.5
#: Dimension parameters drawn by every workload.
NS = (3, 4, 5, 6, 8)
#: Smallest relative gap 1 - t/N of a certify request; a request costs about
#: gap**-2, so this sets the slowest request near one second.
GAP_MIN = 1.5e-3


@dataclass(frozen=True)
class Request:
    """One CLI invocation together with what its checks need to know."""

    kind: str
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict)
    expect_exit: int = 0
    #: Exact stdout pinned by a golden file, when there is one.
    golden: str | None = None


def antithetic(rng: random.Random, strata: int) -> list[float]:
    """2*strata points of [0, 1): two mirrored points inside each stratum.

    Points 2k and 2k+1 share stratum k, so callers can give a pair the same
    other parameters.
    """
    out = []
    for i in range(strata):
        u = rng.random()
        out += [(i + u) / strata, (i + 1 - u) / strata]
    return out


def orth_level_limit(N: int) -> int:
    """Highest level whose table stays below double overflow, minus a margin.

    ``u_n(N) < 2**1023`` keeps every intermediate of the float recursion
    finite; past it the CLI's orthogonal tables break (they wait for the
    scaled recursion of ROADMAP item 4), so the workload stays 8 levels below.
    """
    prev, cur, n = 1, N, 1
    while cur < 2**1023:
        prev, cur, n = cur, N * cur - prev, n + 1
    return n - 1 - 8


def words(max_len: int) -> list[str]:
    """All words over a/b of length <= max_len, by (length, lexicographic)."""
    return ["".join(p) for n in range(max_len + 1) for p in product("ab", repeat=n)]


def _random_word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("ab") for _ in range(rng.randint(lo, hi)))


class Workload:
    """A named, seeded stream of request blocks."""

    name = ""
    #: Blocks every run executes first; at least 100 requests, so the 90th
    #: percentile has ten samples beyond it.  Traced runs execute exactly
    #: these, and peak memory is read after them.
    fixed_blocks = 4

    def __init__(self, seed: int, root):
        self.seed = seed
        self.run_rng = random.Random(f"{self.name}:{seed}")
        self.n_offset = self.run_rng.randrange(len(NS))

    def block(self, b: int) -> list[Request]:
        rng = random.Random(f"{self.name}:{self.seed}:{b}")
        requests = self._block(rng, b)
        rng.shuffle(requests)
        return requests

    def _block(self, rng: random.Random, b: int) -> list[Request]:
        raise NotImplementedError


class CertifySweep(Workload):
    """``certify`` for both groups over a log-uniform gap and eps."""

    name = "certify-sweep"
    GOLDEN = "tests/golden/certificates.jsonl"
    PAIRS = 12

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.golden = [self._golden_request(line) for line in
                       (root / self.GOLDEN).read_text().splitlines()]

    @staticmethod
    def _golden_request(line: str) -> Request:
        record = json.loads(line)
        p, row = record["params"], record["rows"][0]
        argv = ("certify", "--group", p["group"], "--t", repr(float(p["t"])), "--N", str(p["N"]),
                "--eps", repr(float(row["eps"])), "--D", repr(float(p["D"])),
                "--t0", repr(float(p["t0"])))
        spec = {"group": p["group"], "t": float(p["t"]), "N": p["N"], "eps": float(row["eps"]),
                "K": float(p["D"]), "t0": float(p["t0"])}
        return Request("certify", argv, spec, golden=line + "\n")

    def _block(self, rng, b):
        gaps = antithetic(rng, self.PAIRS)
        epss = antithetic(rng, self.PAIRS)
        rng.shuffle(epss)
        groups = ["o", "u"] * self.PAIRS
        rng.shuffle(groups)
        out = list(self.golden)
        for i in range(2 * self.PAIRS):
            N = NS[(self.n_offset + b * self.PAIRS + i // 2) % len(NS)]
            gap_max = 1.0 - T0 / N
            gap = GAP_MIN * (gap_max / GAP_MIN) ** gaps[i]
            t = max(T0, N * (1.0 - gap))
            eps = 10.0 ** (-8.0 + 7.0 * epss[i])
            K = rng.choice((0.5, 1.0, 2.0))
            group = groups[i]
            argv = ("certify", "--group", group, "--t", repr(t), "--N", str(N),
                    "--eps", repr(eps), "--D" if group == "o" else "--R", repr(K))
            spec = {"group": group, "t": t, "N": N, "eps": eps, "K": K, "t0": T0}
            out.append(Request("certify", argv, spec))
        return out


class CoeffTables(Workload):
    """``coeffs`` tables: unitary m 10..14, orthogonal m up to near overflow."""

    name = "coeff-tables"
    ORTH_PAIRS = 9
    #: Unitary levels per block.  Three tables at m = 13 put the 90th
    #: latency percentile in the middle of one group of like requests, not on
    #: the edge between two levels whose order host noise can swap.
    UNIT_LEVELS = (10, 11, 12, 13, 13, 13, 14)
    #: The level of that group.  Its tables are all jsonl: a CSV table is
    #: about a quarter faster, and one among them would move the percentile.
    P90_LEVEL = 13

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.csv_order = [i for i, m in enumerate(self.UNIT_LEVELS) if m != self.P90_LEVEL]
        self.run_rng.shuffle(self.csv_order)
        self.limits = {N: orth_level_limit(N) for N in NS}

    @staticmethod
    def _fresh(rng):
        N = rng.choice(NS)
        return rng.uniform(T0, N), N

    @staticmethod
    def _request(group, t, N, m, fmt, cap=None):
        argv = ["coeffs", "--group", group, "--t", repr(t), "--N", str(N), "--m", str(m)]
        if fmt == "csv":
            argv += ["--format", "csv"]
        spec = {"group": group, "t": t, "N": N, "m": m, "format": fmt}
        if cap is None:
            return Request("coeffs", tuple(argv), spec)
        argv += ["--entry-cap", str(cap)]
        return Request("coeffs-cap", tuple(argv), spec, expect_exit=4)

    def _block(self, rng, b):
        # A pool of two (t, N) pairs per block: unitary requests reuse them
        # (warm coeff_ratio) or draw a fresh pair.
        pool = [self._fresh(rng) for _ in range(2)]
        csv_index = self.csv_order[b % len(self.csv_order)]
        out = []
        for i, m in enumerate(self.UNIT_LEVELS):
            t, N = rng.choice(pool) if rng.random() < 0.6 else self._fresh(rng)
            out.append(self._request("u", t, N, m, "csv" if i == csv_index else "jsonl"))
        for _ in range(2):
            m = rng.randint(12, 16)
            t, N = self._fresh(rng)
            out.append(self._request("u", t, N, m, "jsonl", cap=rng.randint(2**m, 2 ** (m + 1) - 2)))
        levels = antithetic(rng, self.ORTH_PAIRS)
        for i, u in enumerate(levels):
            N = NS[(self.n_offset + b * self.ORTH_PAIRS + i // 2) % len(NS)]
            t = rng.uniform(T0, N)
            m = 50 + int(u * (self.limits[N] - 50 + 1))
            out.append(self._request("o", t, N, m, "jsonl"))
        return out


class ExactChecks(Workload):
    """The five ``verify`` suites plus ``dims``/``fuse`` on big labels."""

    name = "exact-checks"
    fixed_blocks = 7
    SUITES = ("fusion", "moments", "forms", "dims", "decay")

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.phase = self.run_rng.randrange(4)

    def _verify(self, rng, suite, level):
        # ``level`` (0..3) sets the cost; it cycles per block with a phase
        # offset per suite, so four consecutive blocks carry the same work.
        seed = rng.randrange(10**6)
        if suite == "fusion":
            opts = {"max_label": 5 + level + rng.randint(0, 1), "max_len": 4 + level // 2}
        elif suite == "moments":
            opts = {"subdivisions": rng.randint(2000, 3000) * (1 + level)}
        elif suite == "forms":
            opts = {"max_len": 7 + level}
        elif suite == "dims":
            opts = {"max_label": rng.randint(6, 12), "max_len": 4 + level // 2,
                    "samples": rng.randint(300, 400) * (1 + level)}
        else:
            ns = sorted(rng.sample(NS, 2))
            opts = {"N": ns, "grid": rng.randint(4, 8), "max_len": 5 + level}
        argv = ["verify", suite, "--seed", str(seed)]
        for key, value in opts.items():
            flag = "--" + key.replace("_", "-")
            for v in value if isinstance(value, list) else [value]:
                argv += [flag, str(v)]
        return Request("verify", tuple(argv), {"suite": suite, "seed": seed, **opts})

    def _block(self, rng, b):
        out = [self._verify(rng, s, (self.phase + b + i) % 4) for i, s in enumerate(self.SUITES)]
        for kind, group, count, labels in (
            ("dims", "o", 3, lambda: [str(rng.randint(200, 3000)) for _ in range(4)]),
            ("dims", "u", 3, lambda: [_random_word(rng, 20, 150) for _ in range(3)]),
            ("fuse", "o", 2, lambda: [str(rng.randint(10, 80)) for _ in range(3)]),
            ("fuse", "u", 2, lambda: [_random_word(rng, 6, 20) for _ in range(3)]),
        ):
            for _ in range(count):
                N = rng.choice(NS)
                spec = {"group": group, "N": N, "labels": labels()}
                out.append(Request(kind, (kind, "--group", group, "--N", str(N), *spec["labels"]), spec))
        return out


WORKLOADS = {cls.name: cls for cls in (CertifySweep, CoeffTables, ExactChecks)}
