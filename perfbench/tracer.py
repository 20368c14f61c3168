"""Outside-in span tracer for the ``abcsmc`` package.

The tracer replaces public functions of the library with timing wrappers
for the length of one traced run and puts the originals back afterwards.
Nothing inside the library changes: every span is recorded at a call
into a module, under the name ``<module>.<function>``.

A function is patched under every name its callers look it up by.
``simulate`` for instance is imported separately into ``samplers``,
``adaptive`` and ``diagnostics``, so each of those module attributes
that is the original function object gets the wrapper.  Methods
(``StreamCursor.seek``, ``SimCounter.bump``, ...) are patched on their
class.

Each thread keeps its own span stack and span buffer, so replicates that
run on a thread pool nest their spans correctly.  Spans stay in memory
(four flat typed arrays per thread) until the run ends; a span's self
time is its duration minus the durations of its direct children, which
on one thread are nested inside it and never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "abcsmc"

# (module, attribute) of every traced module-level function
FUNCTIONS = (
    ("config", "parse_config"),
    ("model", "simulate"),
    ("model", "prior_sample"),
    ("model", "distance"),
    ("samplers", "_draw_proposal"),
    ("samplers", "prior_predictive"),
    ("samplers", "abc_reject"),
    ("samplers", "mcmc_abc_step"),
    ("samplers", "naive_smc"),
    ("adaptive", "init_stage"),
    ("adaptive", "calibrate_alpha"),
    ("adaptive", "smc_iteration"),
    ("adaptive", "run_self_calibrated"),
    ("resampling", "residual_resample"),
    ("diagnostics", "ess_of_thetas"),
    ("oracle", "toy_accept_prob"),
    ("runner", "run_experiment"),
    ("runner", "run_replicate"),
    ("runner", "write_particles_csv"),
    ("runner", "write_trace_json"),
)

# (module, class, method) of every traced method
METHODS = (
    ("rng", "StreamCursor", "seek"),
    ("rng", "RngKey", "slot_keys"),
    ("trace", "SimCounter", "bump"),
    ("model", "ParticleArray", "distinct_count"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.lstrip('_')}"


class _ThreadSpans:
    """Span buffer and open-span stack of one thread."""

    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.tally: dict[str, int] = {}


def _tally_kernel_step(spans: _ThreadSpans, result) -> None:
    """Classify one ``mcmc_abc_step`` outcome: box-deferred, moved or not."""
    t = spans.tally
    t["steps"] = t.get("steps", 0) + 1
    if result.proposal.z is None:
        t["deferred"] = t.get("deferred", 0) + 1
    else:
        t["kernel_sims"] = t.get("kernel_sims", 0) + 1
        t["moved"] = t.get("moved", 0) + bool(result.moved)


_RESULT_HOOKS = {"samplers.mcmc_abc_step": _tally_kernel_step}


class Tracer:
    """Records spans around calls into the library while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._frozen: dict[str, np.ndarray] | None = None

    def _spans(self) -> _ThreadSpans:
        try:
            return self._local.spans
        except AttributeError:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
            return spans

    def wrap(self, fn, name: str):
        if len(self.names) >= 127:
            raise ValueError("too many span names for an int8 id")
        sid = len(self.names)
        self.names.append(name)
        hook = _RESULT_HOOKS.get(name)
        clock = time.perf_counter_ns
        get_spans = self._spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = get_spans()
            stack = spans.stack
            idx = len(spans.start)
            spans.name.append(sid)
            spans.parent.append(stack[-1] if stack else -1)
            spans.end.append(0)
            stack.append(idx)
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(spans, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module(PACKAGE)
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for mod_name, attr in FUNCTIONS:
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(home, attr)
            wrapped = self.wrap(original, span_name(mod_name, attr))
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, binding, original))
                        setattr(mod, binding, wrapped)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, span_name(mod_name, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def spans(self) -> dict[str, np.ndarray]:
        """All recorded spans as flat arrays; ``parent`` indexes this array.

        Readable once the tracer is uninstalled, when no span can be open.
        """
        if self._patches:
            raise RuntimeError("uninstall the tracer before reading its spans")
        if self._frozen is not None:
            return self._frozen
        cols = {"thread": [], "name": [], "parent": [], "start_ns": [], "end_ns": []}
        offset = 0
        for i, t in enumerate(self._threads):
            n = len(t.start)
            parent = np.frombuffer(t.parent, dtype=np.int32).astype(np.int64)
            cols["thread"].append(np.full(n, i, dtype=np.int16))
            cols["name"].append(np.frombuffer(t.name, dtype=np.int8).copy())
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["start_ns"].append(np.frombuffer(t.start, dtype=np.int64).copy())
            cols["end_ns"].append(np.frombuffer(t.end, dtype=np.int64).copy())
            offset += n
        self._frozen = {k: np.concatenate(v) for k, v in cols.items()}
        return self._frozen

    def tally(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for t in self._threads:
            for k, v in t.tally.items():
                total[k] = total.get(k, 0) + v
        return total

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds and the
        smallest self time of a single span (never negative)."""
        sp = self.spans()
        dur = (sp["end_ns"] - sp["start_ns"]).astype(np.float64)
        has_parent = sp["parent"] >= 0
        covered = np.bincount(
            sp["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - covered
        k = len(self.names)
        name = sp["name"].astype(np.int64)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_ns, minlength=k)
        out = {}
        for i, nm in enumerate(self.names):
            mine = self_ns[name == i]
            out[nm] = {
                "calls": int(calls[i]),
                "s": float(total[i]) / 1e9,
                "self_s": float(own[i]) / 1e9,
                "min_self_s": float(mine.min()) / 1e9 if len(mine) else 0.0,
            }
        return out

    def durations(self, name: str) -> np.ndarray:
        """Seconds of every span recorded under ``name``."""
        sp = self.spans()
        sel = sp["name"] == self.names.index(name)
        return (sp["end_ns"][sel] - sp["start_ns"][sel]) / 1e9

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())
