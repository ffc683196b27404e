"""In-memory spans around kgflow's public functions, recorded from outside.

`install` runs in the child process after `kgflow.cli` is imported and
before `main` is called.  It replaces each target function, in every
kgflow module that holds a reference to it, by a wrapper that records
one span: (id, name, start_ns, end_ns, parent id, work).  The parent is
the innermost open span of the same thread; a span opened in a worker
thread with nothing open gets the first span ever opened, `cli.main`,
as parent.  Spans stay in memory until the operation ends; `write_spans`
dumps them and `summarize` reduces them to calls, inclusive time, self
time and work per span name.

A target the package no longer has is skipped, so its metrics read 0
instead of breaking the traced run.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_FAILED = object()


def _positional(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _grid_work(index, name):
    """Point-modes of one evaluation: positions times momentum nodes."""

    def work(args, kwargs, result):
        state = _positional(args, kwargs, 0, "state")
        xs = _positional(args, kwargs, index, name)
        nodes = getattr(state, "momenta", None)
        if nodes is None or xs is None:
            return 0
        return int(np.size(xs)) * len(nodes)

    return work


def _accepted_steps(args, kwargs, result):
    return max(0, len(getattr(result, "events", ())) - 1)


# module -> function -> work counter (None counts nothing)
TARGETS = {
    "cli": {"main": None},
    "scenarios": {
        "load_scenario": None,
        "build_state": None,
        "build_ensemble": None,
        "truncation_defect": None,
    },
    "states": {
        "psi_dpsi_grid": _grid_work(2, "xs"),
        "psi_grid": _grid_work(2, "xs"),
        "evaluate_psi": _grid_work(1, "e"),
        "evaluate_dpsi": _grid_work(1, "e"),
    },
    "current": {"current": None, "current_grid": _grid_work(2, "xs")},
    "newton_wigner": {
        "nw_density_grid": _grid_work(1, "qs"),
        "position_kernel": None,
        "bessel_k0": None,
    },
    "conditional": {
        "make_final_outcome": None,
        "make_outcome_ensemble": None,
        "outcome_probabilities": None,
        "conditional_current": None,
        "weighted_integrand_grid": _grid_work(3, "xs"),
        "decompose_check": None,
    },
    "trajectories": {"trace": _accepted_steps},
    "validation": {
        "run_validation": None,
        "richardson_divergence": None,
        "conditional_normalization_defect": None,
        "nw_parseval_defect": None,
    },
}

# factories whose returned field handle is traced as "trajectories.field"
FIELD_FACTORIES = ("standard_field", "conditional_field")

RICHARDSON = "validation.richardson_divergence"
CONDITIONAL_SUFFIX = ":conditional"


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans = []
        self.root = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, work=None):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else self.root
            if self.root < 0:
                self.root = sid
            stack.append(sid)
            result = _FAILED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                units = 0
                if work is not None and result is not _FAILED:
                    units = work(args, kwargs, result)
                spans.append((sid, name, start, end, parent, units))

        return wrapper

    def wrap_factory(self, fn):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self.wrap("trajectories.field", fn(*args, **kwargs))

        return factory


def install(tracer: Tracer) -> None:
    """Route every kgflow reference to a target through the tracer."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "kgflow" or n.startswith("kgflow.")]
    for short, functions in TARGETS.items():
        module = sys.modules.get(f"kgflow.{short}")
        if module is None:
            continue
        replacements = {}
        for fname, work in functions.items():
            fn = getattr(module, fname, None)
            if fn is not None:
                replacements[id(fn)] = tracer.wrap(f"{short}.{fname}", fn, work)
        if short == "trajectories":
            for fname in FIELD_FACTORIES:
                fn = getattr(module, fname, None)
                if fn is not None:
                    replacements[id(fn)] = tracer.wrap_factory(fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements:
                    setattr(mod, attr, replacements[id(value)])


def write_spans(spans, path) -> None:
    """One CSV row per span, ordered by id."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,name,start_ns,end_ns,parent,work\n")
        for row in sorted(spans):
            fh.write(",".join(str(v) for v in row) + "\n")


def _covered(intervals, lo, hi) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per span name: [calls, inclusive s, self s, work].

    Self time is a span's duration minus the part of it that its child
    spans cover; children in parallel threads are merged first.
    Richardson divergence spans that contain a conditional-layer span
    are counted under "validation.richardson_divergence:conditional",
    which separates the two continuity checks of the validation report.
    """
    name_of = {}
    parent_of = {}
    children = defaultdict(list)
    for sid, name, start, end, parent, _ in spans:
        name_of[sid] = name
        parent_of[sid] = parent
        children[parent].append((start, end))

    conditional_richardson = set()
    for sid, name in name_of.items():
        if not name.startswith("conditional."):
            continue
        up = parent_of[sid]
        while up in name_of:
            if name_of[up] == RICHARDSON:
                conditional_richardson.add(up)
                break
            up = parent_of[up]

    out = {}
    for sid, name, start, end, _, work in spans:
        if sid in conditional_richardson:
            name += CONDITIONAL_SUFFIX
        entry = out.setdefault(name, [0, 0.0, 0.0, 0])
        duration = end - start
        entry[0] += 1
        entry[1] += duration * 1e-9
        entry[2] += (duration - _covered(children.get(sid, ()), start, end)) * 1e-9
        entry[3] += work
    return out
