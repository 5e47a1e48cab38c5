"""Spans around the public functions at ``liectrl``'s module boundaries.

The benchmark times each layer from outside: :func:`Tracer.install`
replaces each function named in :data:`TRACED` by a wrapper that records
one span per call (name, start, end, parent span, case id).  Spans stay
in memory and are written out when the run ends.  A name that no longer
resolves, because the library renamed or removed it, is reported as
absent and its metrics are left out; the run itself carries on.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

# "<module>.<function>" or "<module>.<Class>.<method>" inside liectrl.
TRACED = (
    "pauli.commutator_arrays",
    "pauli.PauliSum.to_dense",
    "closure.check_universality_qubit",
    "closure.uniform_qubit_generators",
    "closure.close",
    "sectors.build_hubbard_chain_controls",
    "sectors.build_spinful_controls",
    "sectors.build_nnn_lattice",
    "sectors.transfer",
    "sectors.verify_nnn_identity",
    "models.rydberg_terms",
    "models.NoiseModel.realized_controls",
    "propagation.ControlPulse.sample",
    "propagation.propagate_unitary",
    "propagation.propagate_lindblad",
    "propagation.observables",
)

# Metrics derived from the case answers and the spans, beyond the
# per-function ``.calls`` and ``.self_s``, with their units.
DERIVED = {
    "closure.accept_ratio": "ratio",
    "closure.depth_total": "count",
    "closure.dimension_total": "count",
    "trace.overhead_s": "s",
}

CASE_SPAN = "case"


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for fn in TRACED:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    return units | DERIVED


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, case id)
        self.spans: list = []
        self.case = ""
        self.absent: list[str] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the current case."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.case)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every resolvable name in :data:`TRACED`, recording the rest."""
        for name in TRACED:
            module_name, *path = name.split(".")
            try:
                module = importlib.import_module(f"liectrl.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner = module
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            setattr(owner, path[-1], wrapped)
            if owner is module:
                # rebind ``from .x import f`` aliases held by sibling modules
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "liectrl" or mod_name.startswith("liectrl."):
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)

    def spans_of_pass(self, first: int, last: int) -> dict:
        """Per-function calls and self time over spans[first:last]."""
        spans = self.spans[first:last]
        covered = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(spans, start=first):
            calls[name] += 1
            self_s[name] += (end - start) - covered[k]
        return {"calls": calls, "self_s": self_s}

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            out.write("index,name,start_s,end_s,parent,case\n")
            for k, (name, start, end, parent, case) in enumerate(self.spans):
                out.write(f"{k},{name},{start - t0:.9f},{end - t0:.9f},{parent},\"{case}\"\n")
