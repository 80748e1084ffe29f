"""freeqg benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {certify-sweep,coeff-tables,exact-checks}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports ``freeqg`` from
``src/``.  With ``--trace 0`` it runs the workload untraced in one worker
process for S seconds of request time, measures start-up in fresh
interpreters before and after it, and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of blocks twice, untraced and traced,
each in a fresh worker, and reports the per-layer metrics; the spans go to
``.bench_out/``.  Human readable lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-refs`` runs the default seed for REF_SECONDS of request time and
stores every request's exit code and stdout digest in ``bench/refs/``; a run
of the default seed compares each request it shares with that list.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ROOT_SPAN, TRACED
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0
#: Twice a default run, so a run of the default seed finds every request stored.
REF_SECONDS = 60
#: Cold interpreters timed per run, half before the workload and half after
#: it, so that one slow stretch of the host moves at most half of them.
SETUP_PROBES = 12
#: Every run ends well inside three minutes, whatever the program does.
RUN_BUDGET_S = 140.0

PROBE = """\
import sys, time
t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
import freeqg.cli
t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
print(t1, t1 - t0, int("numpy" in sys.modules), freeqg.cli.__file__)
"""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    # An installed package starts from its bytecode cache; let the first
    # probe write it so that set-up time does not depend on this variable.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def probe_startup(count: int) -> list[tuple[float, float, int]]:
    """(spawn to import done, import alone, numpy loaded) per cold interpreter.

    Parent and child read the same CLOCK_MONOTONIC, so the first figure
    covers interpreter start-up as well as ``import freeqg.cli``.  The probes
    run one at a time, after one untimed probe that warms the bytecode and
    file caches.
    """
    out = []
    for i in range(count + 1):
        spawned = now()
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        done, import_s, numpy_loaded, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"freeqg was imported from {path}")
        if i:
            out.append((float(done) - spawned, float(import_s), int(numpy_loaded)))
    return out


def run_worker(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--deadline", repr(deadline), *extra]
    timeout = None if math.isinf(deadline) else max(1.0, deadline - now() + 25.0)
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def refs_args(workload: str, seed: int) -> list[str]:
    path = BENCH / "refs" / f"{workload}.json"
    return ["--refs", str(path)] if seed == DEFAULT_SEED and path.is_file() else []


def end_to_end(args, deadline) -> tuple[dict, list[dict]]:
    probes = probe_startup(SETUP_PROBES // 2)
    res = run_worker(args.workload, args.seed, deadline, "--seconds", str(args.seconds),
                     *refs_args(args.workload, args.seed))
    probes += probe_startup(SETUP_PROBES - SETUP_PROBES // 2)
    lat = res["latencies_s"]
    n = len(lat)
    print(f"workload {args.workload} seed {args.seed}: {n} requests in {res['blocks']} blocks, "
          f"{res['busy_s']:.3f} s of request time; closed loop, one client")
    print(f"  error_rate       {res['failed'] / n:.6g}  ({res['failed']} of {n} requests; "
          f"{res['golden_checked']} golden byte compares, {res['ref_checked']} reference digests)")
    beyond = n - math.ceil(0.9 * n)
    metrics = {
        "throughput_rps": (n / res["busy_s"], "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1000 * percentile(lat, 0.9), "ms"),
        "setup_s": (statistics.median(p[0] for p in probes), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {"latency_p50_ms": f"{n} samples", "latency_p90_ms": f"{n} samples, {beyond} beyond",
             "setup_s": f"median of {len(probes)} cold interpreters, half before and half after"}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:.6g} {unit}  {notes.get(name, '')}")
    return metrics, [res]


def per_layer(args, deadline) -> tuple[dict, list[dict]]:
    probes = probe_startup(5)
    refs = refs_args(args.workload, args.seed)
    plain = run_worker(args.workload, args.seed, now() + (deadline - now()) / 3, *refs)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    traced = run_worker(args.workload, args.seed, deadline, "--trace-out", str(spans), *refs)
    totals = traced["trace"]
    metrics = {}
    for module, functions in TRACED.items():
        for fn in functions:
            name = f"{module}.{fn}"
            if name != ROOT_SPAN:
                metrics[f"{name}.calls"] = (totals[name][0], "count")
            metrics[f"{name}.self_s"] = (totals[name][1] / 1e9, "s")
    calls = {name: c for name, (c, _) in totals.items()}
    request_ns = sum(s for _, s in totals.values())  # the root spans' total time

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["multipliers.tail_bounds_per_cert"] = (ratio(
        calls["multipliers.tail_bound_orth"] + calls["multipliers.tail_bound_unitary"],
        calls["multipliers.choose_truncation"]), "ratio")
    metrics["multipliers.r_of_per_coeff"] = (ratio(
        calls["multipliers.r_of"], calls["multipliers.a_coeff_from_form"]), "ratio")
    metrics["cli.emit_share"] = (ratio(totals["cli._emit"][1], request_ns), "ratio")
    metrics["startup.import_s"] = (statistics.median(p[1] for p in probes), "s")
    metrics["startup.numpy_imported"] = (max(p[2] for p in probes), "flag")
    metrics["trace_overhead"] = (traced["busy_s"] / plain["busy_s"], "ratio")
    print(f"workload {args.workload} seed {args.seed}: {traced['attempted']} requests in "
          f"{traced['blocks']} blocks, traced {traced['busy_s']:.3f} s vs untraced "
          f"{plain['busy_s']:.3f} s; {traced['spans_seen']} spans, first "
          f"{traced['spans_written']} written to {spans.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:.6g} {unit}")
    return metrics, [plain, traced]


def record_refs(workload: str) -> int:
    res = run_worker(workload, DEFAULT_SEED, math.inf, "--seconds", str(REF_SECONDS))
    if res["failed"]:
        print("\n".join(res["failures"]), file=sys.stderr)
        print(f"{res['failed']} requests failed their checks; references not written", file=sys.stderr)
        return 1
    path = BENCH / "refs" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "blocks": res["blocks"],
                                "entries": res["entries"]}, indent=0) + "\n")
    print(f"wrote {len(res['entries'])} references to {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true",
                        help="store reference digests for the default seed and exit")
    args = parser.parse_args(argv)
    deadline = now() + RUN_BUDGET_S

    missing = [p for p in ("src/freeqg/cli.py", "tests/golden/certificates.jsonl")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a freeqg source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.record_refs:
        return record_refs(args.workload)

    try:
        metrics, results = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for line in r["failures"]:
            print(f"FAILED {line}")
    for b, digest in enumerate(results[-1]["block_digests"]):
        print(f"digest {args.workload} seed {args.seed} block {b} {digest}")
    golden_ok = args.workload != "certify-sweep" or all(r["golden_checked"] >= 6 for r in results)
    print(json.dumps({
        "correct": failed == 0 and golden_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
