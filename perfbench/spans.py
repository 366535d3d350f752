"""In-memory spans around calls into dirachl's public functions.

`instrumented(tracer)` wraps each public function named in LAYERS, in
every dirachl module namespace that holds it (so calls between modules
are caught as well), and undoes the wrapping on exit.  Nothing in dirachl
is edited; with no tracer installed the library runs untouched.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import tracemalloc

# span name -> (module, attribute path) of the wrapped callable
LAYERS = {
    "forward.jost_kernel_direct": ("dirachl.forward", "jost_kernel_direct"),
    "forward.jost_kernel": ("dirachl.forward", "jost_kernel"),
    "inverse.invert_wiener": ("dirachl.inverse", "invert_wiener"),
    "inverse.scattering_kernel": ("dirachl.inverse", "scattering_kernel"),
    "inverse.recover_potential": ("dirachl.inverse", "recover_potential"),
    "transforms.blaschke_modify": ("dirachl.transforms", "blaschke_modify"),
    "canonical.hamiltonian_from_potential": ("dirachl.canonical", "hamiltonian_from_potential"),
    "canonical.potential_from_hamiltonian": ("dirachl.canonical", "potential_from_hamiltonian"),
    "canonical.canonical_values": ("dirachl.canonical", "canonical_values"),
    "core.validate_class": ("dirachl.core", "validate_class"),
    "core.jost_psi": ("dirachl.core", "JostRep.psi"),
    "core.s_values": ("dirachl.core", "ScatteringRep.s_values"),
    "spectral.find_resonances": ("dirachl.spectral", "find_resonances"),
}
# every JSON encoder and decoder of the file formats counts as one layer
JSON_CODEC = [("dirachl.core", name) for name in (
    "dump_json", "load_json",
    "Potential.to_json", "Potential.from_json",
    "JostRep.to_json", "JostRep.from_json",
    "ScatteringRep.to_json", "ScatteringRep.from_json",
    "ResonanceSet.to_json", "ResonanceSet.from_json",
)] + [("dirachl.canonical", "Hamiltonian.to_json"),
      ("dirachl.canonical", "Hamiltonian.from_json")]
# spans whose peak Python-heap allocation is recorded with tracemalloc
TRACK_MEMORY = {"core.s_values"}


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, job id)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.peak_bytes: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        # self seconds reported by traced child processes: (name, job, seconds)
        self.external: list[tuple[str, int, float]] = []
        self.job = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.job))
        self._stack.append(index)
        track = name in TRACK_MEMORY and not tracemalloc.is_tracing()
        if track:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if track:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def add_external(self, name: str, seconds: float) -> None:
        self.external.append((name, self.job, seconds))

    def totals(self) -> dict[str, float]:
        """Self seconds per span name, child-process spans included."""
        out: dict[str, float] = {}
        for name, _, self_s, _ in self.self_times():
            out[name] = out.get(name, 0.0) + self_s
        for name, _, self_s in self.external:
            out[name] = out.get(name, 0.0) + self_s
        return out

    def self_times(self) -> list[tuple[str, int, float, float]]:
        """(name, job, self seconds, total seconds) per finished span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name, job, (end - start) - child[i], end - start)
                for i, (name, start, end, _, job) in enumerate(self.spans)]

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "job": job,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the LAYERS and JSON_CODEC callables for the duration."""
    import dirachl.cli  # noqa: F401  (loads every dirachl module)

    targets = [(name, mod, path) for name, (mod, path) in LAYERS.items()]
    targets += [("core.json_codec", mod, path) for mod, path in JSON_CODEC]
    undo = []
    try:
        for name, mod, path in targets:
            try:
                owner, attr = _resolve(mod, path)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                print(f"perfbench: no {mod}.{path}; layer {name} not traced",
                      file=sys.stderr)
                continue
            if inspect.isclass(owner):
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = tracer.wrap(name, fn)
                new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
                continue
            fn = getattr(owner, attr)
            wrapped = tracer.wrap(name, fn)
            for modname, module in list(sys.modules.items()):
                if modname == "dirachl" or modname.startswith("dirachl."):
                    for key, val in list(vars(module).items()):
                        if val is fn:
                            setattr(module, key, wrapped)
                            undo.append((module, key, fn))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
