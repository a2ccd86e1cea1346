"""Span tracer that wraps rismf's public functions from outside the package.

``Tracer.install`` replaces every binding of a wrapped function object in
every ``rismf.*`` namespace, so calls made through ``from .mf import
estimate_single_user`` in another module are recorded too. Each call records
a span (name, start, end, parent, cell id, thread) in memory; the per-thread
stack gives the parent, and a span inherits the cell id of its parent.

Functions not listed are left alone, so their time stays in the caller's
self time. ``steering_matrix`` is wrapped for a count only (angles
evaluated) and records no span.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Functions recorded as spans, by owning module.
SPANNED = {
    "channel": ("sample_channel",),
    "signals": ("make_pilot_schedule", "downlink_observe", "uplink_observe", "despread"),
    "mf": (
        "estimate_single_user", "init_psi", "maximize_over_manifold", "am_iterate",
        "ls_a_bar", "gd_iterate", "objective",
    ),
    "multiuser": ("estimate_multi_user", "estimate_psi_uplink", "estimate_a_q"),
    "baselines": ("ls_full", "lr_rankone"),
    "experiments": ("run_sweep", "write_results", "nmse", "spectral_efficiency"),
}

# The sweep's per-cell workers. They are private to ``experiments``; the
# benchmark wraps them to get one span per sweep cell and fails loudly if
# they are renamed.
CELL_FUNCTIONS = ("_single_user_cell", "_multi_user_cell")

COUNTED = {"channel": ("steering_matrix",)}


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "cell", "thread", "info")

    def __init__(self, span_id, name, start, parent, cell, thread):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.cell = cell
        self.thread = thread
        self.info = None

    def as_dict(self) -> dict:
        return {
            "id": self.span_id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "cell": self.cell, "thread": self.thread, "info": self.info,
        }


def _estimate_info(args, kwargs, result):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    solver = config.solver if config is not None else "am"
    max_iters = config.resolved_max_iters() if config is not None else None
    return {
        "solver": solver, "converged": bool(result.converged),
        "iters_used": int(result.iters_used), "max_iters": max_iters,
    }


def _ls_info(args, kwargs, result):
    sched = kwargs.get("sched", args[1] if len(args) > 1 else None)
    k, n_bs = sched.pilots.shape
    return {"k": int(k), "n_bs": int(n_bs), "m_ris": int(sched.phases.shape[1])}


def _lr_info(args, kwargs, result):
    return {"converged": bool(result.converged), "iters_used": int(result.iters_used)}


def _sweep_info(args, kwargs, result):
    return {"n_threads": int(kwargs.get("n_threads", args[1] if len(args) > 1 else 1))}


# Per-call details taken from arguments and results, for ratios that need them.
_INFO = {
    "mf.estimate_single_user": _estimate_info,
    "baselines.ls_full": _ls_info,
    "baselines.lr_rankone": _lr_info,
    "experiments.run_sweep": _sweep_info,
}


class Tracer:
    """Records spans around rismf calls while installed and enabled."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._cells = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self.enabled = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, new_cell: bool = False):
        """Context manager recording one span; ``new_cell`` starts a cell id."""
        return _SpanContext(self, name, new_cell)

    def _open(self, name, new_cell):
        stack = self._stack()
        parent = stack[-1] if stack else None
        cell = next(self._cells) if new_cell else (parent.cell if parent else None)
        span = Span(next(self._ids), name, time.perf_counter(), parent.span_id if parent else None,
                    cell, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap_span(self, qualname, fn, new_cell=False):
        info_fn = _INFO.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(qualname, new_cell)
            try:
                result = fn(*args, **kwargs)
                if info_fn is not None:
                    span.info = info_fn(args, kwargs, result)
                return result
            finally:
                self._close(span)

        return wrapper

    def _wrap_count(self, qualname, fn):
        key = qualname + ".angles"

        @functools.wraps(fn)
        def wrapper(n_elements, angles):
            if self.enabled:
                with self._lock:
                    self.counts[key] += int(np.size(angles))
            return fn(n_elements, angles)

        return wrapper

    def install(self, package) -> None:
        """Wrap the listed functions and rebind them in every ``rismf.*`` namespace."""
        prefix = package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        replacements = {}
        for short, names in SPANNED.items():
            module = sys.modules[f"{prefix}.{short}"]
            for name in names:
                fn = getattr(module, name)
                replacements[id(fn)] = (fn, self._wrap_span(f"{short}.{name}", fn))
        experiments = sys.modules[f"{prefix}.experiments"]
        for name in CELL_FUNCTIONS:
            fn = getattr(experiments, name, None)
            if fn is None:
                raise RuntimeError(f"rismf.experiments.{name} is gone; update CELL_FUNCTIONS")
            replacements[id(fn)] = (fn, self._wrap_span("cell", fn, new_cell=True))
        for short, names in COUNTED.items():
            module = sys.modules[f"{prefix}.{short}"]
            for name in names:
                fn = getattr(module, name)
                replacements[id(fn)] = (fn, self._wrap_count(f"{short}.{name}", fn))

        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


class _SpanContext:
    def __init__(self, tracer, name, new_cell):
        self.tracer, self.name, self.new_cell = tracer, name, new_cell
        self.span = None

    def __enter__(self):
        if self.tracer.enabled:
            self.span = self.tracer._open(self.name, self.new_cell)
        return self

    def __exit__(self, *exc):
        if self.span is not None:
            self.tracer._close(self.span)
        return False


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered, last_end = 0.0, span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, last_end), min(end, span.end)
            if end > start:
                covered += end - start
                last_end = end
        out[span.span_id] = (span.end - span.start) - covered
    return out
