"""Spans around calls into the package's public functions, from outside.

`Tracer.install()` replaces each traced function, found by name, in every
`dissipent` module namespace that binds it, so calls made through
`from ... import` bindings and through a module's own globals are both
seen.  Finding functions by name keeps a span when a function moves to
another module.  `uninstall()` puts the originals back.

Spans are kept in memory and written out when the run ends.  A span has a
name, start and end (perf_counter_ns), parent span and pass id.  The hot
leaf `adiabatic_exponent` is called millions of times per pass, so instead
of one span per call its calls and time are added to the innermost open
span; they count as child coverage of that span.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter_ns

# metric prefix -> name of the traced function
SPANS = {
    "cli.main": "main",
    "sweep.run_sweep": "run_sweep",
    "sweep.table_to_csv": "table_to_csv",
    "sweep.table_to_json": "table_to_json",
    "sweep.regime_map": "regime_map",
    "sweep.regime_map_to_csv": "regime_map_to_csv",
    "sweep.oracle_run": "oracle_run",
    "spinboson.delta_ren": "delta_ren",
    "spinboson.sigma_x": "sigma_x",
    "spinboson.subohmic_regime": "subohmic_regime",
    "spinboson.spin_entropy": "spin_entropy",
    "gaussian.oscillator_moments": "oscillator_moments",
    "gaussian.oscillator_entropy_expansion": "oscillator_entropy_expansion",
    "gaussian.free_particle_entropy": "free_particle_entropy",
    "oracles.discrete_bath_moments": "discrete_bath_moments",
    "oracles.eigh": "eigh",
    "oracles.gaussian_entropy": "gaussian_entropy",
    "oracles.ring_kernel_entropy": "ring_kernel_entropy",
}
LEAF = ("bath.adiabatic_exponent", "adiabatic_exponent")
SCAN_CALLS = 1024  # adiabatic_exponent calls that mark a delta_ren scan
PACKAGE = "dissipent"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "pass_id",
                 "leaf_calls", "leaf_ns", "none", "n_modes")

    def __init__(self, id_, name, parent, pass_id):
        self.id = id_
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = self.end = 0
        self.leaf_calls = self.leaf_ns = 0
        self.none = False
        self.n_modes = None

    def as_list(self) -> list:
        return [getattr(self, k) for k in self.__slots__]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.pass_id = None
        self._patched: list = []  # (module, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, prefix, fn):
        spans, stack = self.spans, self.stack
        modes_param = "n_modes" if "n_modes" in inspect.signature(fn).parameters else None
        sig = inspect.signature(fn) if modes_param else None

        def traced(*args, **kwargs):
            parent = stack[-1].id if stack else None
            rec = Span(len(spans), prefix, parent, self.pass_id)
            spans.append(rec)
            if modes_param:
                rec.n_modes = int(sig.bind(*args, **kwargs).arguments[modes_param])
            stack.append(rec)
            rec.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = perf_counter_ns()
                stack.pop()
            rec.none = result is None
            return result

        return traced

    def _leaf_wrapper(self, fn):
        stack = self.stack

        def traced(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                top = stack[-1]  # passes enter through the cli.main span
                top.leaf_calls += 1
                top.leaf_ns += perf_counter_ns() - t0

        return traced

    # -- install / uninstall ----------------------------------------------

    def install(self) -> list:
        """Wrap every traced function in every namespace binding it; returns
        the names that were found nowhere."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wanted = {name: prefix for prefix, name in SPANS.items()}
        wanted[LEAF[1]] = LEAF[0]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers: dict = {}
        found = set()
        for mod in modules:
            for name, prefix in wanted.items():
                fn = vars(mod).get(name)
                if not callable(fn):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = (self._leaf_wrapper(fn) if prefix == LEAF[0]
                                        else self._span_wrapper(prefix, fn))
                setattr(mod, name, wrappers[id(fn)])
                self._patched.append((mod, name, fn))
                found.add(name)
        return sorted(set(wanted) - found)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._patched):
            setattr(mod, name, fn)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def self_ns(self, spans=None) -> dict:
        """Self time of each span (all, or those of one pass): duration minus
        the time covered by its child spans and by the leaf calls made
        directly inside it."""
        spans = self.spans if spans is None else spans
        covered = {s.id: s.leaf_ns for s in spans}
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return {s.id: s.end - s.start - covered[s.id] for s in spans}

    def pass_metrics(self, pass_id, spin_boson_points: int) -> dict:
        """Per-layer metrics of one traced pass (times in seconds)."""
        spans = [s for s in self.spans if s.pass_id == pass_id]
        own = self.self_ns(spans)
        out = {}
        for prefix in SPANS:
            mine = [s for s in spans if s.name == prefix]
            out[f"{prefix}.calls"] = len(mine)
            out[f"{prefix}.s"] = sum(s.end - s.start for s in mine) / 1e9
            out[f"{prefix}.self_s"] = sum(own[s.id] for s in mine) / 1e9
        dr = [s for s in spans if s.name == "spinboson.delta_ren"]
        out["spinboson.delta_ren.scan_calls"] = sum(s.leaf_calls >= SCAN_CALLS for s in dr)
        out["spinboson.delta_ren.none_calls"] = sum(s.none for s in dr)
        out["spinboson.delta_ren.calls_per_point"] = (
            len(dr) / spin_boson_points if spin_boson_points else 0.0)
        out[f"{LEAF[0]}.calls"] = sum(s.leaf_calls for s in spans)
        out[f"{LEAF[0]}.s"] = sum(s.leaf_ns for s in spans) / 1e9
        dims = [s.n_modes + 1 for s in spans
                if s.name == "oracles.discrete_bath_moments" and s.n_modes is not None]
        out["oracles.discrete_bath_moments.matrix_dim"] = max(dims, default=0)
        # computed, not measured: bytes of the dense (N+1)^2 float64 matrices
        out["oracles.discrete_bath_moments.bytes_computed"] = sum(8 * d * d for d in dims)
        return out

    def write(self, path) -> None:
        """JSON lines: the field names, then one list of values per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(Span.__slots__) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s.as_list()) + "\n")
