"""The precompute-once entry shape: ``prepare → query`` (DESIGN.md §14).

``solve`` pays for each request in full; :meth:`Session.prepare` instead
runs a registered solver's ``prepare`` capability once — for
``submatrix_max`` that builds a
:class:`~repro.monge.index.MongeIndex` — and returns a
:class:`PreparedHandle` whose :meth:`~PreparedHandle.query` answers many
requests against the built structure.  Builds and queries charge the
session ledger exactly like solves do (each through the lifecycle's
:class:`~repro.engine.lifecycle.SubAccount` step, merged back), emit
``index-build`` / ``index-query`` spans when tracing is on, and bump the
``index.*`` metrics; they are **not** appended to ``Session.queries`` —
the query log stays the record of solve-shaped requests, while prepared
work is visible through the ledger, metrics, and traces.

Handles are cached per session in a small LRU keyed on
``(problem, backend, id(data), config fingerprint)`` — preparing the
same array twice under the same config returns the same handle
(``index.lru.hits``) without rebuilding.  The handle keeps a strong
reference to the data, so an ``id``-keyed hit can never alias a
recycled object.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.config import ExecutionConfig
from repro.engine.lifecycle import SubAccount
from repro.engine.planner import shape_of
from repro.engine.registry import CapabilityError, registry
from repro.engine.result import SearchResult
from repro.kernels.registry import resolve_kernel_tier
from repro.obs.metrics import metrics
from repro.obs.tracer import Tracer

__all__ = ["PreparedHandle", "prepare_handle", "prepare"]


class PreparedHandle:
    """A built index bound to its session, config, and machine.

    ``handle.query(rows, cols)`` returns a full
    :class:`~repro.engine.result.SearchResult` (strategy ``"index"``)
    whose snapshot is the query's own ledger sub-account.  ``handle.index``
    exposes the underlying structure (e.g.
    :class:`~repro.monge.index.MongeIndex`) for direct, uncharged reads.
    """

    def __init__(self, session, problem: str, spec, cfg: ExecutionConfig,
                 index, machine, data, build_snapshot: Optional[dict],
                 build_trace) -> None:
        self.session = session
        self.problem = problem
        self.spec = spec
        self.config = cfg
        self.index = index
        self.machine = machine
        self.data = data  # strong ref: keeps the id()-keyed LRU sound
        #: Ledger snapshot of the build sub-account (``None`` sequentially).
        self.build_snapshot = build_snapshot
        #: Trace of the build span when the config enables tracing.
        self.build_trace = build_trace

    @property
    def shape(self):
        return self.index.shape

    def query(self, rows, cols) -> SearchResult:
        """Answer one ``(row_range, col_range)`` rectangle.

        Charges the scanned envelope entries plus one combine round on a
        private sub-account, merges it into the session ledger, and
        returns the result with its snapshot — the same accounting shape
        a :meth:`Session.solve` result carries.
        """
        session = self.session
        tracer = span = None
        if self.config.trace:
            tracer = Tracer()
            span = tracer.begin(
                "index-query",
                "query",
                problem=self.problem,
                backend=session.backend,
                strategy="index",
                shape=self.index.shape,
            )
        account = SubAccount(self.machine, tracer, span)
        values, witnesses, info = account.run(
            None, self.index.query_on, self.machine, rows, cols
        )
        if tracer is not None:
            span.attrs["nodes"] = info["nodes"]
            span.attrs["scanned"] = info["scanned"]
        metrics().counter("index.queries").inc()
        return account.result(session, self.problem, "index", values, witnesses)


def prepare_handle(session, problem: str, data, cfg: ExecutionConfig
                   ) -> PreparedHandle:
    """Build (or fetch from the session LRU) a prepared handle."""
    spec = registry.lookup(problem, session.backend)
    if not spec.preparable:
        preparable = sorted(
            {p for p, b in registry.keys()
             if b == session.backend and registry.lookup(p, b).preparable}
        )
        raise CapabilityError(
            f"({problem}, {session.backend}) declares no prepare capability; "
            f"preparable problems on this backend: {preparable or ['<none>']}"
        )
    if isinstance(data, (tuple, list)):
        raise TypeError(
            f"prepare({problem!r}, data) takes the array alone (a SearchArray "
            "or a 2-D NumPy array), not a tuple or list such as the one-shot "
            "(array, rows, cols) form; pass each rectangle to "
            "handle.query(rows, cols)"
        )
    spec.check_kernel_tier(cfg.kernel_tier)
    shape = shape_of(problem, data)

    m = metrics()
    key = (problem, session.backend, id(data), cfg.fingerprint())
    cached = session._prepared.get(key)
    if cached is not None:
        session._prepared.move_to_end(key)
        m.counter("index.lru.hits").inc()
        return cached
    m.counter("index.lru.misses").inc()

    # the built index is the same in every tier, so the kernel tier is
    # resolved for the build only, not keyed
    tier = resolve_kernel_tier(cfg.kernel_tier)
    machine = session.machine(spec.nodes(shape))
    tracer = span = None
    if cfg.trace:
        tracer = Tracer()
        span = tracer.begin(
            "index-build",
            "prepare",
            problem=problem,
            backend=session.backend,
            shape=shape,
            kernel_tier=tier,
        )
    account = SubAccount(machine, tracer, span)
    index = account.run(tier, spec.prepare, machine, data, cfg)
    snapshot = account.settle(session)
    trace = None
    if tracer is not None:
        span.attrs["build_evals"] = index.build_evals
        trace = tracer.trace(span)
    m.counter("index.builds").inc()

    handle = PreparedHandle(
        session, problem, spec, cfg, index, machine, data, snapshot, trace
    )
    session._prepared[key] = handle
    while len(session._prepared) > session.index_cache:
        session._prepared.popitem(last=False)
        m.counter("index.lru.evictions").inc()
    return handle


def prepare(problem, data=None, backend: str = "auto",
            config: Optional[ExecutionConfig] = None, *, machine=None,
            **overrides) -> PreparedHandle:
    """One-shot front door: ``repro.prepare(array).query(rows, cols)``.

    Spins a throwaway session (see
    :meth:`repro.engine.session.Session.prepare`); the handle keeps the
    session alive, so its ledger keeps aggregating across queries.
    """
    from repro.engine.session import Session

    session = Session(backend, machine=machine)
    return session.prepare(problem, data, config, **overrides)
