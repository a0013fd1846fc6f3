"""Span tracing of nevkit's layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
nevkit module that binds it (``bounds`` imports ``circle_max_many``,
``stieltjes_integral`` and ``_log_pair_detailed`` by name; ``potentials``
and ``integrators`` both import ``adaptive_simpson``), so no call path
escapes.  A span records name, start, end, parent and a work count; a
per-thread stack keeps self time right when ``verify_suite`` runs cases in a
thread pool.  Spans stay in memory until ``write``.

Work counts come from argument sizes and, for the ``quad`` routines, from
the points passed to the integrand callable.
"""
from __future__ import annotations

import itertools
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

MODULES = ("nevkit", "nevkit.quad", "nevkit.potentials", "nevkit.integrators",
           "nevkit.characteristics", "nevkit.bounds", "nevkit.cli")


def _integrand_work(args, kwargs, counter):
    """Wrap the integrand (first argument) so it adds its input size to
    ``counter[0]``."""
    f = args[0]

    def counted(x):
        counter[0] += int(np.size(x))
        return f(x)
    return (counted,) + tuple(args[1:]), kwargs


def _size_of(index):
    def work(args, kwargs, counter):
        counter[0] += int(np.size(args[index]))
        return args, kwargs
    return work


def _omega_cells(args, result):
    """widths x candidate anchors: each width scans the mesh kinks and jumps,
    both as left ends and shifted by -t, plus the jumps' left limits."""
    m, ts = args[0], args[1]
    xs, _, _ = m._mesh
    jumps = len(m.jumps)
    return int(np.size(ts)) * (2 * (xs.size + jumps) + jumps)


# (layer, function, work before the call, second work count after the call)
TRACED = (
    ("quad", "adaptive_simpson", _integrand_work, None),
    ("quad", "golden_max", _integrand_work, None),
    ("quad", "bisect_sign_changes", _integrand_work, None),
    ("potentials", "evaluate_many", _size_of(1), None),
    ("potentials", "circle_max_many", _size_of(1), None),
    ("potentials", "circle_mean_max", None, None),
    ("integrators", "omega_many", _size_of(1), _omega_cells),
    ("integrators", "_log_pair_detailed", None, None),
    ("integrators", "stieltjes_integral", None, None),
    ("characteristics", "diff_nevanlinna", None, None),
    ("characteristics", "diff_nevanlinna_total", None, None),
    ("bounds", "growth_bound_lhs", None, None),
    ("bounds", "growth_bound_rhs", None, None),
)


class _ThreadLog:
    """Spans of one thread, in flat arrays (columns of a span table)."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack = []          # [span id, time covered by children]
        self.ids = array("q")
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        self.work = array("q")
        self.cells = array("q")


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fn, _, _ in TRACED]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._restore: list = []
        self.t0 = perf_counter()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _wrap(self, index: int, fn, before, after):
        tracer = self

        def traced(*args, **kwargs):
            log = tracer._log()
            counter = [0]
            if before is not None:
                args, kwargs = before(args, kwargs, counter)
            span = next(tracer._ids)
            parent = log.stack[-1][0] if log.stack else 0
            frame = [span, 0.0]
            log.stack.append(frame)
            result, done = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = perf_counter()
                log.stack.pop()
                dur = end - start
                if log.stack:
                    log.stack[-1][1] += dur
                log.ids.append(span)
                log.names.append(index)
                log.parents.append(parent)
                log.starts.append(start - tracer.t0)
                log.ends.append(end - tracer.t0)
                log.selfs.append(dur - frame[1])
                log.work.append(counter[0])
                log.cells.append(after(args, result)
                                 if done and after is not None else 0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every binding of each traced function in nevkit."""
        for index, (layer, name, before, after) in enumerate(TRACED):
            home = sys.modules[f"nevkit.{layer}"]
            original = getattr(home, name)
            wrapper = self._wrap(index, original, before, after)
            for mod_name in MODULES:
                mod = sys.modules.get(mod_name)
                if mod is not None and getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    self._restore.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def totals(self) -> dict:
        """Per function: calls, inclusive seconds, self seconds, work, cells."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0, "cells": 0}
               for name in self.names}
        for log in self._logs:
            if not log.names:
                continue
            names = np.frombuffer(log.names, dtype=np.int32)
            dur = np.frombuffer(log.ends) - np.frombuffer(log.starts)
            selfs = np.frombuffer(log.selfs)
            work = np.frombuffer(log.work, dtype=np.int64)
            cells = np.frombuffer(log.cells, dtype=np.int64)
            for index, name in enumerate(self.names):
                sel = names == index
                agg = out[name]
                agg["calls"] += int(np.count_nonzero(sel))
                agg["s"] += float(dur[sel].sum())
                agg["self_s"] += float(selfs[sel].sum())
                agg["work"] += int(work[sel].sum())
                agg["cells"] += int(cells[sel].sum())
        return out

    def write(self, path) -> None:
        """All spans as columns of a compressed npz, with the name table."""
        cols = {k: [] for k in ("id", "name", "parent", "start", "end",
                                "self", "work", "thread")}
        for log in self._logs:
            n = len(log.names)
            cols["id"].append(np.frombuffer(log.ids, dtype=np.int64))
            cols["name"].append(np.frombuffer(log.names, dtype=np.int32))
            cols["parent"].append(np.frombuffer(log.parents, dtype=np.int64))
            cols["start"].append(np.frombuffer(log.starts))
            cols["end"].append(np.frombuffer(log.ends))
            cols["self"].append(np.frombuffer(log.selfs))
            cols["work"].append(np.frombuffer(log.work, dtype=np.int64))
            cols["thread"].append(np.full(n, log.thread, dtype=np.int64))
        arrays = {k: (np.concatenate(v) if v else np.empty(0))
                  for k, v in cols.items()}
        np.savez_compressed(path, names=np.array(self.names), **arrays)
