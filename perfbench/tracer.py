"""Spans and counters recorded around cqdual's public functions, from outside the package.

Install a Tracer to replace each traced function by a wrapper that records a
span (name, start, end, parent) and, for some functions, counts read from the
arguments and result. `from .linalg import fidelity` copies a name into the
importing module, so the wrapper is bound in every cqdual module that holds
the original object, not only in the defining one.

The eigensolvers numpy.linalg.eigh and eigvalsh are counted rather than
recorded one span per call: a pass makes up to 100k calls. Their time
still counts as child time of the enclosing span, so self times exclude it.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

TRACED = {
    "entropies": ["max_fidelity_sum", "decoupling_q", "guessing_prob", "petz_curve",
                  "dispersion", "duality_check"],
    "linalg": ["fidelity", "purify", "gram_embed", "hermitian_eig"],
    "channels": ["dual", "invariant_profile"],
    "polar": ["convolve", "trajectory", "convolution_duality_check", "trajectory_duality_gap",
              "polarization_experiment"],
    "codedchannels": ["compression_extraction_tables", "coded_duality_check",
                      "ensemble_decoupling", "ensemble_cond_entropy", "ensemble_guessing",
                      "classical_coded_table", "exit_duality_check"],
    "fbl": ["compute_curves"],
    "cli": ["main"],
}
KERNELS = ("eigh", "eigvalsh")

# dimension of a traced function's output, where it has one
OUT_DIM = {
    "linalg.purify": lambda r: int(np.prod(r.dims)),
    "linalg.gram_embed": lambda r: r.shape[1],
    "linalg.hermitian_eig": lambda r: r[0].shape[0],
    "channels.dual": lambda r: r.dim,
    "polar.convolve": lambda r: r.dim,
    "polar.trajectory": lambda r: max((s.dim for s in r.levels), default=0),
}
ASCENT = "entropies.max_fidelity_sum"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports, in order."""
    out = []
    for k in KERNELS:
        out += [(f"kernel.{k}.calls", "count", "lower"), (f"kernel.{k}.s", "s", "lower"),
                (f"kernel.{k}.n3_sum", "count", "lower"), (f"kernel.{k}.n_max", "dim", "lower")]
    for mod, names in TRACED.items():
        for fn in names:
            name = f"{mod}.{fn}"
            out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
            if name == ASCENT:
                out += [(f"{name}.iterations", "count", "lower"),
                        (f"{name}.restarts", "count", "lower"),
                        (f"{name}.unconverged", "count", "lower"),
                        (f"{name}.converged_ratio", "ratio", "higher"),
                        (f"{name}.dim_max", "dim", "lower")]
            if name in OUT_DIM:
                out.append((f"{name}.out_dim_max", "dim", "lower"))
    out += [("check.p50_ms", "ms", "lower"), ("check.p95_ms", "ms", "lower"),
            ("worst_gap_ratio", "ratio", "lower"), ("tracing_overhead_s", "s", "lower"),
            ("span_coverage", "ratio", "higher")]
    return out


class Tracer:
    """Spans of one traced pass, kept in memory until written out."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index, self seconds]
        self.stack: list[list] = []  # [span index, seconds covered by children]
        self.kernels = {k: [0, 0.0, 0, 0] for k in KERNELS}  # calls, seconds, sum n^3, max n
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for k in KERNELS:
            orig = getattr(np.linalg, k)
            self._bind_everywhere(orig, self._kernel(k, orig), extra=(np.linalg,))
        for mod, names in TRACED.items():
            module = sys.modules[f"cqdual.{mod}"]
            for fn in names:
                orig = getattr(module, fn)
                self._bind_everywhere(orig, self._span(f"{mod}.{fn}", orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def _bind_everywhere(self, orig, wrapper, extra=()) -> None:
        modules = [m for n, m in sys.modules.items() if n == "cqdual" or n.startswith("cqdual.")]
        bound = 0
        for module in [*extra, *modules]:
            for attr, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, orig))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{orig!r} is bound in no traced module")

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        out_dim = OUT_DIM.get(name)
        dim_key = f"{name}.out_dim_max"
        ascent = name == ASCENT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [index, clock(), 0.0, stack[-1][0] if stack else -1, 0.0]
            frame = [len(spans), 0.0]
            spans.append(rec)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                stack.pop()
                dur = end - rec[1]
                rec[4] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if out_dim is not None:
                counts[dim_key] = max(counts.get(dim_key, 0), out_dim(result))
            if ascent:
                _count_ascent(counts, args[0], result)
            return result

        return traced

    def _kernel(self, name: str, fn):
        st = self.kernels[name]
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            t0 = clock()
            try:
                return fn(a, *args, **kwargs)
            finally:
                dt = clock() - t0
                shape = getattr(a, "shape", None) or np.shape(a)
                n = shape[-1] if shape else 0
                batch = 1
                for d in shape[:-2]:
                    batch *= d
                st[0] += 1
                st[1] += dt
                st[2] += batch * n**3
                if n > st[3]:
                    st[3] = n
                if stack:
                    stack[-1][1] += dt

        return traced

    # -- results -----------------------------------------------------------

    def root_seconds(self) -> float:
        """Time covered by spans with no parent; they are disjoint."""
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def metrics(self) -> dict[str, float]:
        """calls and self seconds per traced function, kernel totals and counters."""
        out = {}
        for k, (calls, secs, n3, nmax) in self.kernels.items():
            out.update({f"kernel.{k}.calls": calls, f"kernel.{k}.s": secs,
                        f"kernel.{k}.n3_sum": n3, f"kernel.{k}.n_max": nmax})
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for index, _, _, _, self_s in self.spans:
            name = self.names[index]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
        out.update(self.counts)
        calls = out.get(f"{ASCENT}.calls", 0)
        unconverged = self.counts.get(f"{ASCENT}.unconverged", 0)
        out[f"{ASCENT}.converged_ratio"] = (calls - unconverged) / calls if calls else 1.0
        return out

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "kernels": {k: dict(zip(("calls", "s", "n3_sum", "n_max"), v))
                            for k, v in self.kernels.items()}}


def _count_ascent(counts: dict, factors, result) -> None:
    for key, val in ((f"{ASCENT}.iterations", result.iterations),
                     (f"{ASCENT}.restarts", result.restarts),
                     (f"{ASCENT}.unconverged", int(not result.converged))):
        counts[key] = counts.get(key, 0) + val
    dim_key = f"{ASCENT}.dim_max"
    counts[dim_key] = max(counts.get(dim_key, 0), np.shape(factors[0])[0])


def write_spans(path, passes: list[Tracer], extra: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**extra, "passes": [t.dump() for t in passes]}, fh)
