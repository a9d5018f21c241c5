"""Span tracing of cmcsep's public functions, installed from outside the
package by rebinding module attributes.

Several modules import names such as ``hermitize`` or ``build_block_cm``
directly, so each function is rebound in every ``cmcsep`` module that holds
it.  Spans stay in memory as (name, start, end, parent, state) tuples and are
written out once the run ends.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# Wrapped functions, by layer.  The module-qualified name is the span name.
TRACED = {
    "cli": ("main", "load_statefile", "run_benchmark"),
    "criteria": ("run_all", "ppt", "ccnr", "de_vicente",
                 "cmc_singular_values", "cmc_trace", "cmc_schmidt",
                 "cmc_kyfan_weyl", "cmc_filter", "cmc_sdp_2q"),
    "filtering": ("normal_form",),
    "sdpsolve": ("solve",),
    "schmidt": ("operator_schmidt",),
    "covariance": ("build_block_cm", "two_qubit_effective_cm"),
    "observables": ("gellmann_like_basis",),
    "matlin": ("hermitize", "partial_transpose", "trace_norm", "ky_fan_norm",
               "operator_norm", "swap_subsystems"),
    "states": ("sample_chessboard",),
}

CRITERIA = TRACED["criteria"][1:]
MATLIN = TRACED["matlin"]
ROOT = "state"


class Tracer:
    """Records spans of the wrapped functions; ``run`` installs the wrappers
    for the duration of one state's call and opens its root span."""

    def __init__(self) -> None:
        self.spans: list = []
        self.sweeps: list[int] = []       # per normal_form call
        self.unconverged = 0
        self.noise_mixed = 0
        self.sdp_iterations: list[int] = []
        self.sdp_not_optimal = 0
        self.sdp_max_gap = 0.0
        self._stack: list[int] = []
        self._state = -1
        self._bindings = []
        for layer, names in TRACED.items():
            module = sys.modules[f"cmcsep.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "cmcsep" and not mod_name.startswith("cmcsep."):
                        continue
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = {"filtering.normal_form": self._observe_filter,
                   "sdpsolve.solve": self._observe_sdp}.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._state)
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_filter(self, nf) -> None:
        self.sweeps.append(int(nf.iterations))
        self.unconverged += not nf.converged
        self.noise_mixed += nf.noise_eps > 0.0

    def _observe_sdp(self, sol) -> None:
        self.sdp_iterations.append(int(sol.iterations))
        self.sdp_not_optimal += sol.status != "optimal"
        self.sdp_max_gap = max(self.sdp_max_gap, abs(float(sol.gap)))

    def run(self, state_id: int, fn, *args):
        """Call fn(*args) with the wrappers installed, under a root span."""
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        self._state = state_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT, start, end, -1, state_id)
            for mod, attr, original, _ in self._bindings:
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, state in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "state": state}) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it covered by its children.

    Children of one parent may overlap in general, so their intervals are
    merged (clipped to the parent) before subtracting.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((end - start) - covered)
    return out


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, untraced: list[float], output_bytes: float,
                  failed: int) -> dict:
    """Per-state layer figures from the recorded spans, as name -> (value,
    unit); every metric is present on every workload, as zero where the
    layer never ran.  ``untraced`` holds the untraced call times of the same
    states, which give the tracing overhead."""
    n_states = len(untraced)
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    excl: dict[str, float] = {}
    for (name, start, end, _, _), own in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        excl[name] = excl.get(name, 0.0) + own
    n = max(n_states, 1)

    def ms(name, table=incl):
        return 1e3 * table.get(name, 0.0) / n

    m = {}
    sweeps = tracer.sweeps
    total_sweeps = float(sum(sweeps))
    m["filtering.normal_form.ms"] = ms("filtering.normal_form")
    m["filtering.sweeps_total"] = total_sweeps / n
    m["filtering.sweeps_p50"] = _pct(sweeps, 50)
    m["filtering.sweeps_p90"] = _pct(sweeps, 90)
    m["filtering.sweeps_max"] = float(max(sweeps, default=0))
    m["filtering.us_per_sweep"] = (1e6 * incl.get("filtering.normal_form", 0.0)
                                   / total_sweeps if total_sweeps else 0.0)
    m["filtering.unconverged"] = float(tracer.unconverged)
    m["filtering.noise_mixed"] = float(tracer.noise_mixed)
    m["filtering.converged_ratio"] = (
        1.0 - tracer.unconverged / len(sweeps) if sweeps else 0.0)

    its = tracer.sdp_iterations
    total_its = float(sum(its))
    m["sdpsolve.solve.ms"] = ms("sdpsolve.solve")
    m["sdpsolve.iterations_total"] = total_its / n
    m["sdpsolve.iterations_p50"] = _pct(its, 50)
    m["sdpsolve.iterations_p90"] = _pct(its, 90)
    m["sdpsolve.ms_per_iteration"] = (1e3 * incl.get("sdpsolve.solve", 0.0)
                                      / total_its if total_its else 0.0)
    m["sdpsolve.not_optimal"] = float(tracer.sdp_not_optimal)
    m["sdpsolve.max_gap"] = tracer.sdp_max_gap

    for crit in CRITERIA:
        m[f"criteria.{crit}.ms"] = ms(f"criteria.{crit}")
        m[f"criteria.{crit}.self_ms"] = ms(f"criteria.{crit}", excl)
    for name in ("covariance.build_block_cm", "schmidt.operator_schmidt",
                 "observables.gellmann_like_basis"):
        m[f"{name}.calls"] = calls.get(name, 0) / n
        m[f"{name}.ms"] = ms(name)
    m["covariance.two_qubit_effective_cm.ms"] = ms("covariance.two_qubit_effective_cm")
    for fn in MATLIN:
        m[f"matlin.{fn}.calls"] = calls.get(f"matlin.{fn}", 0) / n
        m[f"matlin.{fn}.ms"] = ms(f"matlin.{fn}")
    m["cli.load_statefile.ms"] = ms("cli.load_statefile")
    m["cli.main.self_ms"] = ms("cli.main", excl)
    m["cli.output_bytes"] = output_bytes
    m["states.sample_chessboard.ms"] = ms("states.sample_chessboard")
    layer_self = sum(v for k, v in excl.items() if k != ROOT)
    m["trace.self_sum_ms_per_state"] = 1e3 * layer_self / n
    m["trace.harness_self_ms_per_state"] = ms(ROOT, excl)
    m["trace.traced_ms_per_state"] = ms(ROOT)
    m["trace.untraced_ms_per_state"] = 1e3 * sum(untraced) / n
    m["trace.overhead_ms_per_state"] = (m["trace.traced_ms_per_state"]
                                        - m["trace.untraced_ms_per_state"])
    m["trace.overhead_states_per_s"] = (1e3 / m["trace.traced_ms_per_state"]
                                        - 1e3 / m["trace.untraced_ms_per_state"])
    m["trace.states"] = float(n_states)
    m["trace.failed_frac"] = failed / n
    return {k: (v, _unit(k)) for k, v in m.items()}


def _unit(name: str) -> str:
    if name.endswith(("ms", "ms_per_state", "ms_per_iteration")):
        return "ms"
    if name.endswith((".calls", "_total")):
        return "1/state"
    return {"filtering.us_per_sweep": "us",
            "filtering.converged_ratio": "ratio",
            "trace.failed_frac": "ratio",
            "sdpsolve.max_gap": "1",
            "cli.output_bytes": "bytes",
            "trace.overhead_states_per_s": "1/s"}.get(name, "count")
