"""Structured tracing for the solver engine (DESIGN.md §10).

The paper's claims are *round-shaped* — Tables 1.1–1.3 bound rounds and
processors, not wall-clock — so the tracer observes exactly the layer
the :class:`~repro.pram.ledger.CostLedger` already accounts: every
committed ``charge`` becomes a *round event*, every ledger ``phase``
(and every observer-only ``machine.obs_phase``) becomes a *phase span*,
and every kernel chokepoint (entry evaluation, grouped extrema, network
collectives) emits a *kernel event*.  The engine adds the outer
structure: one ``solve`` span per query, one ``bucket`` / ``sweep``
span pair per fused ``solve_many`` group.

Attribution is **per ledger**, not per thread: the tracer keeps one open
span stack for each bound :class:`CostLedger`.  This is what makes fused
batched sweeps traceable — a :class:`~repro.kernels.chargefan.ChargeFan`
replays each owner query's serial charge sequence into that query's own
sub-account, and the events land on that query's span, even though the
replay interleaves owners arbitrarily.

The charge identity the test suite pins::

    Trace.totals()["rounds"|"work"|"peak_processors"]
        == the query ledger snapshot, bit for bit

holds by construction: the solve span's inclusive totals are summed
from the same committed charges the snapshot summarizes.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = ["SpanEvent", "Span", "Trace", "Tracer"]


@dataclass
class SpanEvent:
    """One point event inside a span.

    ``kind`` is ``"round"`` (a committed :meth:`CostLedger.charge`) or
    ``"kernel"`` (a kernel invocation; ``size`` is its candidate count,
    it carries no charges of its own).
    """

    kind: str
    name: str = ""
    rounds: int = 0
    processors: int = 0
    work: int = 0
    size: int = 0
    t: float = 0.0

    def structure(self) -> dict:
        """Timestamp-free projection used by golden-trace comparisons."""
        return {
            "kind": self.kind,
            "name": self.name,
            "rounds": self.rounds,
            "processors": self.processors,
            "work": self.work,
            "size": self.size,
        }


@dataclass
class Span:
    """One node of the trace tree.

    ``rounds``/``work``/``peak_processors``/``charges`` accumulate the
    round events recorded *directly* on this span (exclusive of
    children); :meth:`totals` folds the subtree.
    """

    name: str
    kind: str
    span_id: int
    attrs: Dict = field(default_factory=dict)
    t0: float = 0.0
    t1: float = 0.0
    events: List[SpanEvent] = field(default_factory=list)
    children: List["Span"] = field(default_factory=list)
    parent: Optional["Span"] = None
    rounds: int = 0
    work: int = 0
    peak_processors: int = 0
    charges: int = 0

    # ------------------------------------------------------------------ #
    def record_charge(self, rounds: int, processors: int, work: int, t: float) -> None:
        self.events.append(SpanEvent(
            kind="round", rounds=rounds, processors=processors, work=work, t=t
        ))
        self.rounds += rounds
        self.work += work
        self.peak_processors = max(self.peak_processors, processors)
        self.charges += 1

    def record_kernel(self, name: str, size: int, t: float) -> None:
        self.events.append(SpanEvent(kind="kernel", name=name, size=size, t=t))

    # ------------------------------------------------------------------ #
    def walk(self) -> Iterator["Span"]:
        """Depth-first iterator over the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def totals(self) -> dict:
        """Inclusive charge totals of the subtree.

        The ``rounds``/``work``/``peak_processors`` entries are, by
        construction, bit-identical to the query ledger snapshot the
        span was bound to (tests/test_obs_tracer.py pins this).
        """
        out = {"rounds": 0, "work": 0, "peak_processors": 0, "charges": 0}
        for span in self.walk():
            out["rounds"] += span.rounds
            out["work"] += span.work
            out["peak_processors"] = max(out["peak_processors"], span.peak_processors)
            out["charges"] += span.charges
        return out

    def structure(self) -> dict:
        """Timestamp-free span tree: names, kinds, charge deltas, events.

        This is the projection golden-trace tests compare — stable
        across hosts, wall-clock jitter, and the fast-path switch (the
        fused-kernel invariant makes the charge *sequence* identical).
        """
        return {
            "name": self.name,
            "kind": self.kind,
            "rounds": self.rounds,
            "work": self.work,
            "peak_processors": self.peak_processors,
            "charges": self.charges,
            "events": [e.structure() for e in self.events],
            "children": [c.structure() for c in self.children],
        }

    @property
    def wall_s(self) -> float:
        return max(0.0, self.t1 - self.t0)


class Trace:
    """One query's (or batch's) finished span tree, with exporters."""

    def __init__(self, root: Span, epoch: float = 0.0) -> None:
        self.root = root
        self.epoch = epoch

    # ------------------------------------------------------------------ #
    def spans(self) -> List[Span]:
        return list(self.root.walk())

    def totals(self) -> dict:
        return self.root.totals()

    def structure(self) -> dict:
        return self.root.structure()

    # ------------------------------------------------------------------ #
    def to_jsonl(self, path_or_file) -> None:
        """Write one JSON object per span (flattened tree, parent ids)."""
        rows = []
        ids = {}
        for i, span in enumerate(self.root.walk()):
            ids[id(span)] = i
            rows.append({
                "id": i,
                "parent": ids.get(id(span.parent)) if span.parent is not None else None,
                "name": span.name,
                "kind": span.kind,
                "t0_us": round((span.t0 - self.epoch) * 1e6, 1),
                "t1_us": round((span.t1 - self.epoch) * 1e6, 1),
                "attrs": _jsonable(span.attrs),
                "rounds": span.rounds,
                "work": span.work,
                "peak_processors": span.peak_processors,
                "charges": span.charges,
                "events": [e.structure() for e in span.events],
            })
        if isinstance(path_or_file, (str, bytes)):
            with open(path_or_file, "w", encoding="utf-8") as fh:
                for row in rows:
                    fh.write(json.dumps(row) + "\n")
        else:
            for row in rows:
                path_or_file.write(json.dumps(row) + "\n")

    def to_jsonl_str(self) -> str:
        buf = io.StringIO()
        self.to_jsonl(buf)
        return buf.getvalue()

    def to_chrome(self, path_or_file) -> None:
        """Export in Chrome ``trace_event`` format (``chrome://tracing``,
        Perfetto).  Spans become complete (``"X"``) events; round and
        kernel events become instants (``"i"``) carrying their
        charge payload in ``args``."""
        events = []
        for span in self.root.walk():
            ts = (span.t0 - self.epoch) * 1e6
            dur = max(0.1, (span.t1 - span.t0) * 1e6)
            events.append({
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": round(ts, 1),
                "dur": round(dur, 1),
                "pid": 1,
                "tid": _tid(span),
                "args": {
                    **_jsonable(span.attrs),
                    "rounds": span.rounds,
                    "work": span.work,
                    "peak_processors": span.peak_processors,
                },
            })
            for ev in span.events:
                events.append({
                    "name": ev.name or ev.kind,
                    "cat": ev.kind,
                    "ph": "i",
                    "s": "t",
                    "ts": round((ev.t - self.epoch) * 1e6, 1),
                    "pid": 1,
                    "tid": _tid(span),
                    "args": {k: v for k, v in ev.structure().items() if v},
                })
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        if isinstance(path_or_file, (str, bytes)):
            with open(path_or_file, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        else:
            json.dump(payload, path_or_file)


def _tid(span: Span) -> int:
    """Chrome lane: the root span's id, so fused bucket queries render
    as parallel tracks."""
    while span.parent is not None:
        span = span.parent
    return span.span_id + 1


def _jsonable(attrs: Dict) -> Dict:
    out = {}
    for k, v in attrs.items():
        if isinstance(v, (str, int, float, bool)) or v is None:
            out[k] = v
        elif isinstance(v, (tuple, list)):
            out[k] = [int(x) if hasattr(x, "__index__") else x for x in v]
        else:
            out[k] = repr(v)
    return out


# --------------------------------------------------------------------- #
class _LedgerStack:
    """Open-span stack for one bound ledger."""

    __slots__ = ("ledger", "stack")

    def __init__(self, ledger, root: Span) -> None:
        self.ledger = ledger
        self.stack = [root]


class Tracer:
    """Collects spans; implements the ledger observer protocol.

    A tracer is bound to ledgers (``bind``) by the engine; every
    committed charge / phase / kernel notification on a bound
    ledger is recorded on that ledger's innermost open span.  Spans not
    tied to a ledger (bucket containers, sequential-backend solves) are
    plain tree nodes.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.roots: List[Span] = []
        self._stacks: Dict[int, _LedgerStack] = {}
        self._next_id = 0

    # -- span lifecycle -------------------------------------------------- #
    def begin(self, name: str, kind: str, parent: Optional[Span] = None, **attrs) -> Span:
        span = Span(
            name=name, kind=kind, span_id=self._next_id, attrs=attrs,
            t0=time.perf_counter(), parent=parent,
        )
        self._next_id += 1
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        return span

    def end(self, span: Span) -> Span:
        span.t1 = time.perf_counter()
        return span

    @contextmanager
    def span(self, name: str, kind: str = "span", parent: Optional[Span] = None, **attrs):
        s = self.begin(name, kind, parent=parent, **attrs)
        try:
            yield s
        finally:
            self.end(s)

    # -- ledger binding -------------------------------------------------- #
    def bind(self, ledger, span: Span) -> None:
        """Attribute this ledger's charges to ``span`` (and descendants)."""
        self._stacks[id(ledger)] = _LedgerStack(ledger, span)
        ledger.observer = self

    def unbind(self, ledger) -> None:
        slot = self._stacks.pop(id(ledger), None)
        if slot is not None:
            # close any phase spans a raising solver left open
            for span in slot.stack[1:]:
                self.end(span)
            if ledger.observer is self:
                ledger.observer = None

    def _top(self, ledger) -> Optional[Span]:
        slot = self._stacks.get(id(ledger))
        return slot.stack[-1] if slot is not None else None

    # -- observer protocol (called from repro.pram.ledger) --------------- #
    def on_charge(self, ledger, rounds: int, processors: int, work: int) -> None:
        span = self._top(ledger)
        if span is not None:
            span.record_charge(rounds, processors, work, time.perf_counter())

    def on_kernel(self, ledger, name: str, size: int) -> None:
        span = self._top(ledger)
        if span is not None:
            span.record_kernel(name, size, time.perf_counter())

    def on_phase(self, ledger, name: str, enter: bool) -> None:
        slot = self._stacks.get(id(ledger))
        if slot is None:
            return
        if enter:
            span = self.begin(name, "phase", parent=slot.stack[-1])
            slot.stack.append(span)
        else:
            # close the matching phase span and any span left open inside it
            for i in range(len(slot.stack) - 1, 0, -1):
                if slot.stack[i].name == name and slot.stack[i].kind == "phase":
                    while len(slot.stack) > i:
                        self.end(slot.stack.pop())
                    break

    # ------------------------------------------------------------------ #
    def trace(self, root: Optional[Span] = None) -> Trace:
        """A :class:`Trace` over ``root`` (default: a synthetic wrapper
        of every root span recorded so far)."""
        if root is not None:
            return Trace(root, epoch=self.epoch)
        if len(self.roots) == 1:
            return Trace(self.roots[0], epoch=self.epoch)
        wrapper = Span(
            name="session", kind="session", span_id=-1,
            t0=self.epoch, t1=time.perf_counter(),
        )
        wrapper.children = list(self.roots)
        return Trace(wrapper, epoch=self.epoch)
