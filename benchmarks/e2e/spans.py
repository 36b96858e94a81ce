"""Per-layer self time, measured from outside the library.

:class:`SpanRecorder` replaces the public calls of each layer with timing
wrappers for the traced phase and restores them afterwards.  Each wrapped
call is a span; a layer's self time is the summed duration of its spans
minus the time of wrapped calls made inside them.  Spans live on
per-thread stacks in memory; with ``keep=True`` every finished span is
also kept for the JSONL dump.

Which calls belong to which layer (the module each name is looked up in
matters: a function imported with ``from x import f`` is rebound in every
module that calls it):

engine   Session.solve / solve_many / prepare, PreparedHandle.query,
         plan_query in engine.session and serve.service, group_plans and
         execute_bucket in engine.lifecycle, run_plans in engine.session
         and serve.service
core     every registered SolverSpec.fn and SolverSpec.prepare,
         rowmin_pram.batched_row_extrema
kernels  eval_grouped_min in kernels.api and core.{rowmin,staircase,tube}_pram,
         ChargeFan.charge / grouped_min / counts
pram     CostLedger.charge / merge / snapshot
monge    SearchArray.eval, smawk (in the repro.monge.smawk module),
         MongeIndex.build / query_on
obs      Counter.inc, Gauge.set, Histogram.observe

Spans carry an op tag and a weight from a context variable.  A closed-loop
op runs with weight 1.  In the query service a ``run_plans`` call executes
several requests at once; inside it the weight is the number of requests,
so each request is charged the full wall time of the call that answered
it.  Spans on the event-loop thread have weight 0: that time is the
request's wait, which the harness measures as latency minus execution.
"""

from __future__ import annotations

import contextvars
import dataclasses
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, List, Optional

LAYERS = ("engine", "core", "kernels", "pram", "monge", "obs")

#: ``(op tag, weight)`` for spans opened in the current context.
_OP = contextvars.ContextVar("e2e_op", default=(None, 0))


def _targets():
    """``(owner, attribute, layer)`` for every wrapped call but the registry
    entries and the service's ``run_plans``."""
    from repro.core import rowmin_pram, staircase_pram, tube_pram
    from repro.engine import lifecycle
    from repro.engine import session as engine_session
    from repro.engine.prepared import PreparedHandle
    from repro.engine.session import Session
    from repro.kernels import api as kernels_api
    from repro.kernels.chargefan import ChargeFan
    from repro.monge.arrays import SearchArray
    from repro.monge.index import MongeIndex
    from repro.obs.metrics import Counter, Gauge, Histogram
    from repro.pram.ledger import CostLedger
    from repro.serve import service as serve_service

    smawk_module = sys.modules["repro.monge.smawk"]
    return [
        (Session, "solve", "engine"),
        (Session, "solve_many", "engine"),
        (Session, "prepare", "engine"),
        (PreparedHandle, "query", "engine"),
        (engine_session, "plan_query", "engine"),
        (serve_service, "plan_query", "engine"),
        (lifecycle, "group_plans", "engine"),
        (lifecycle, "execute_bucket", "engine"),
        (engine_session, "run_plans", "engine"),
        (rowmin_pram, "batched_row_extrema", "core"),
        (kernels_api, "eval_grouped_min", "kernels"),
        (rowmin_pram, "eval_grouped_min", "kernels"),
        (staircase_pram, "eval_grouped_min", "kernels"),
        (tube_pram, "eval_grouped_min", "kernels"),
        (ChargeFan, "charge", "kernels"),
        (ChargeFan, "grouped_min", "kernels"),
        (ChargeFan, "counts", "kernels"),
        (CostLedger, "charge", "pram"),
        (CostLedger, "merge", "pram"),
        (CostLedger, "snapshot", "pram"),
        (SearchArray, "eval", "monge"),
        (smawk_module, "smawk", "monge"),
        (MongeIndex, "build", "monge"),
        (MongeIndex, "query_on", "monge"),
        (Counter, "inc", "obs"),
        (Gauge, "set", "obs"),
        (Histogram, "observe", "obs"),
    ]


def _label(owner, attr: str) -> str:
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class _ThreadState:
    """One thread's span stack and running totals."""

    def __init__(self, keep: bool) -> None:
        self.stack: List[list] = []
        self.top = 0.0  # summed duration of outermost spans since begin_op
        self.self_time = defaultdict(float)  # layer -> weighted seconds
        self.calls = defaultdict(int)  # span name -> count
        self.evals = 0
        self.spans: Optional[list] = [] if keep else None


class SpanRecorder:
    """Install timing wrappers, collect per-layer totals, uninstall."""

    def __init__(self, keep: bool = False) -> None:
        self.keep = keep
        self._tls = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []
        self._layer_of: dict = {}  # span name -> layer
        #: one ``(request tags, request arrays, start, end)`` per service
        #: ``run_plans`` call
        self.exec_calls: list = []

    # -- per-thread state -------------------------------------------------- #
    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState(self.keep)
            self._tls.state = state
            with self._lock:
                self._states.append(state)
            return state

    def begin_op(self, tag):
        """Mark the current thread as running closed-loop op ``tag``."""
        self._state().top = 0.0
        return _OP.set((tag, 1))

    def end_op(self, token) -> float:
        """End the op; return the wall time of its outermost spans."""
        _OP.reset(token)
        return self._state().top

    @staticmethod
    def tag_request(tag) -> None:
        """Tag spans of the current asyncio task with a request number."""
        _OP.set((tag, 0))

    # -- wrapping ---------------------------------------------------------- #
    def _wrap(self, fn, name: str, layer: str, count_arg: Optional[int] = None):
        self._layer_of[name] = layer
        state_of = self._state
        ids = self._ids
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            st = state_of()
            stack = st.stack
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                else:
                    st.top += dur
                tag, weight = _OP.get()
                st.self_time[layer] += (dur - frame[0]) * weight
                st.calls[name] += 1
                if count_arg is not None:
                    st.evals += int(args[count_arg])
                if st.spans is not None:
                    parent = stack[-1][1] if stack else None
                    st.spans.append((frame[1], parent, name, layer, t0, t1, tag))

        return wrapper

    def _wrap_service_exec(self, fn):
        """The service's ``run_plans``: one call answers every request in
        ``plans``, so spans inside it are weighted by their number."""
        inner = self._wrap(fn, "service.run_plans", "engine")
        perf = time.perf_counter
        calls = self.exec_calls

        def wrapper(session, plans, *args, **kwargs):
            tags = [p.index for p in plans]
            token = _OP.set((tags, len(plans)))
            t0 = perf()
            try:
                return inner(session, plans, *args, **kwargs)
            finally:
                t1 = perf()
                _OP.reset(token)
                calls.append((tags, [p.data for p in plans], t0, t1))

        return wrapper

    def _replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> None:
        from repro.engine.registry import registry
        from repro.serve import service as serve_service

        for owner, attr, layer in _targets():
            count_arg = 2 if attr == "eval_grouped_min" else None
            self._replace(
                owner, attr,
                lambda fn, n=_label(owner, attr), l=layer, c=count_arg: self._wrap(fn, n, l, c),
            )
        self._replace(serve_service, "run_plans", self._wrap_service_exec)

        originals = list(registry.specs())
        for spec in originals:
            label = f"{spec.problem}/{spec.backend}"
            registry.add(dataclasses.replace(
                spec,
                fn=self._wrap(spec.fn, f"{label}.fn", "core"),
                prepare=(None if spec.prepare is None
                         else self._wrap(spec.prepare, f"{label}.prepare", "core")),
            ))
        self._undo.append(lambda: [registry.add(spec) for spec in originals])

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ----------------------------------------------------------- #
    def totals(self) -> dict:
        """Per-layer weighted self seconds, call counts and kernel evals."""
        self_time = defaultdict(float)
        layer_calls = defaultdict(int)
        calls = defaultdict(int)
        evals = 0
        with self._lock:
            states = list(self._states)
        for st in states:
            for layer, t in st.self_time.items():
                self_time[layer] += t
            for name, n in st.calls.items():
                calls[name] += n
                layer_calls[self._layer_of[name]] += n
            evals += st.evals
        return {"self_s": dict(self_time), "layer_calls": dict(layer_calls),
                "calls": dict(calls), "evals": evals}

    def write_jsonl(self, path: str, workload: str) -> int:
        """Write every kept span as one JSON object per line; returns the count."""
        with self._lock:
            states = list(self._states)
        count = 0
        with open(path, "a", encoding="utf-8") as f:
            for thread, st in enumerate(states):
                for sid, parent, name, layer, t0, t1, tag in st.spans or ():
                    f.write(json.dumps({
                        "workload": workload, "id": sid, "parent": parent,
                        "name": name, "layer": layer, "start": t0, "end": t1,
                        "op": tag, "thread": thread,
                    }) + "\n")
                    count += 1
        return count
