"""Span tracing of freeqg's public functions, installed from outside the package.

``Tracer.install`` wraps every listed function at every binding inside the
``freeqg`` modules (``freeqg.verify.alternating_form`` as well as
``freeqg.free_unitary.alternating_form``, and the values of module-level
dicts such as ``verify.SUITES``), so calls between modules are traced too.
Each call becomes a span (name, start, end, parent, request id).  Counts and
self time (span time minus the time of its child spans) are accumulated
exactly for every call; the spans themselves are kept in memory up to
``span_cap`` and written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

#: module -> public functions traced, per the benchmark's layer map.
TRACED = {
    "chebyshev": ("cheby_u", "coeff_ratio", "dim_orth"),
    "fusion_orth": ("fuse_orth", "fuse_orth_many"),
    "free_unitary": ("word_parse", "alternating_form", "char_expand_oracle", "fuse_unitary",
                     "dim_unitary", "dim_unitary_recursive"),
    "multipliers": ("r_of", "a_coeff_from_form", "MultiplierCoeffs", "tail_sup",
                    "tail_bound_orth", "tail_bound_unitary", "choose_truncation",
                    "truncated_coeffs"),
    "spectral": ("semicircle_moment",),
    "verify": ("verify_fusion", "verify_moments", "verify_forms", "verify_dims", "verify_decay"),
    "cli": ("main", "cmd_fuse", "cmd_dims", "cmd_coeffs", "cmd_certify", "cmd_verify", "_emit"),
}

#: Name of the root span of each request.
ROOT_SPAN = "cli.main"


class Tracer:
    """Span recorder shared by all wrappers of one process."""

    def __init__(self, span_cap: int):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.span_cap = span_cap
        self.spans_seen = 0
        # Columns of the kept spans, in finish order (children first).
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_rid = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        # Open spans: [span id, child time in ns]; the bottom frame is a
        # sentinel that absorbs the time of root spans.
        self.stack: list[list[int]] = [[-1, 0]]
        self.rid = -1

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        stack, calls, self_ns = self.stack, self.calls, self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer.spans_seen
            tracer.spans_seen += 1
            parent = stack[-1][0]
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][1] += duration
                self_ns[idx] += duration - frame[1]
                calls[idx] += 1
                if span_id < tracer.span_cap:
                    tracer._keep(idx, span_id, parent, start, end)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _keep(self, idx, span_id, parent, start, end):
        self.span_id.append(span_id)
        self.span_name.append(idx)
        self.span_parent.append(parent)
        self.span_rid.append(self.rid)
        self.span_start.append(start)
        self.span_end.append(end)

    def install(self) -> None:
        """Wrap every function of :data:`TRACED` at each of its bindings."""
        modules = [importlib.import_module("freeqg")]
        modules += [importlib.import_module(f"freeqg.{m}") for m in TRACED]
        modules += [m for name, m in sorted(sys.modules.items())
                    if name.startswith("freeqg.") and m not in modules]
        wrapped = {}
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"freeqg.{module_name}")
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapped[id(original)] = self.wrap(f"{module_name}.{fn_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in value.items():
                        if id(item) in wrapped:
                            value[key] = wrapped[id(item)]

    def totals(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self time in ns)."""
        return {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_ns)}

    def write(self, path) -> int:
        """Write the kept spans as TSV, in start order; returns the count."""
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        with open(path, "w") as fh:
            fh.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for i in order:
                fh.write(f"{self.span_id[i]}\t{self.span_parent[i]}\t{self.span_rid[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t{self.span_end[i]}\n")
        return len(order)
