"""Run one workload in this process and print its raw figures as one JSON line.

``run.py`` starts one worker per measured run, so ``ru_maxrss`` is the peak
resident memory of that run alone.  The worker is a closed loop with one
client: it calls ``freeqg.cli.main(argv)`` in-process for one request at a
time, captures stdout and stderr, times the call, and checks the exit code
and stdout against the request's golden bytes, the independent checks of
``checks.py`` and, where stored, the reference digest.

    python3 bench/worker.py --workload NAME --seed N [--seconds S]
                            [--deadline T] [--refs FILE] [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Spans kept in memory for the trace file; counts and self times cover all.
SPAN_CAP = 200_000


def call(main, argv):
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = main(list(argv))
    except Exception as exc:  # a crash fails this request, not the run
        code = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="after the workload's fixed blocks, run whole blocks until this "
                             "much request time")
    parser.add_argument("--deadline", type=float, default=float("inf"),
                        help="CLOCK_MONOTONIC time after which no new block starts")
    parser.add_argument("--refs", type=Path, help="stored exit:sha256 entries for this seed")
    parser.add_argument("--trace-out", type=Path, help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import freeqg.cli

    if not Path(freeqg.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"freeqg was imported from {freeqg.cli.__file__}, not from {ROOT / 'src'}")
    from checks import check
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    refs = json.loads(args.refs.read_text())["entries"] if args.refs else []
    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer(SPAN_CAP)
        tracer.install()

    latencies, entries, digests, failures = [], [], [], []
    failed = golden_checked = ref_checked = 0
    busy = 0.0
    peak_rss_mb = None
    b = 0
    while b < workload.fixed_blocks or busy < args.seconds:
        if time.clock_gettime(time.CLOCK_MONOTONIC) > args.deadline:
            break
        block_digest = hashlib.sha256()
        for req in workload.block(b):
            rid = len(latencies)
            if tracer:
                tracer.rid = rid
            code, out, elapsed = call(freeqg.cli.main, req.argv)
            busy += elapsed
            latencies.append(elapsed)
            entry = f"{code}:{hashlib.sha256(out.encode()).hexdigest()}"
            entries.append(entry)
            block_digest.update(entry.encode())
            problems = []
            if code != req.expect_exit:
                problems.append(f"exit {code}, expected {req.expect_exit}")
            else:
                if req.golden is not None:
                    golden_checked += 1
                    if out != req.golden:
                        problems.append("stdout differs from the golden certificate")
                problems += check(req.kind, req.spec, out, rid)
            if rid < len(refs):
                ref_checked += 1
                if refs[rid] != entry:
                    problems.append("exit code or stdout digest differs from the stored reference")
            if problems:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"request {rid} {' '.join(req.argv)}: {'; '.join(problems)}")
        digests.append(block_digest.hexdigest())
        b += 1
        if b == workload.fixed_blocks:
            # Peak memory over a fixed amount of work, however fast the host.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures,
        "golden_checked": golden_checked,
        "ref_checked": ref_checked,
        "blocks": b,
        "busy_s": busy,
        "latencies_s": latencies,
        "entries": entries,
        "block_digests": digests,
        "peak_rss_mb": peak_rss_mb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["trace"] = tracer.totals()
        result["spans_seen"] = tracer.spans_seen
        result["spans_written"] = tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
