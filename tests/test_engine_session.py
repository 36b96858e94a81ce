"""Session behavior: ledger sub-accounts, machine reuse, certification, apps.

The acceptance contract of the engine refactor: every query runs on its
own :class:`~repro.pram.ledger.CostLedger` sub-account that merges into
the session total, machines are reused across queries, certification
rides behind :class:`ExecutionConfig`, and all four §1.3 applications
can share one session.
"""

import numpy as np
import pytest

import repro
from repro.apps.empty_rectangle import (
    largest_empty_corner_rectangle,
    largest_empty_corner_rectangle_brute,
)
from repro.apps.largest_rectangle import largest_rectangle_brute, largest_two_corner_rectangle
from repro.apps.string_edit import (
    edit_distance_dag_parallel,
    edit_distance_wagner_fischer,
)
from repro.apps.visible_neighbors import neighbor_queries_brute, visible_neighbor_queries
from repro.engine import CapabilityError, ExecutionConfig, Session
from repro.monge.generators import (
    random_composite,
    random_monge,
    random_staircase_monge,
)

RNG = np.random.default_rng(23)
MONGE = random_monge(12, 12, RNG)
STAIRCASE = random_staircase_monge(10, 10, RNG)
COMPOSITE = random_composite(5, 5, 5, RNG)


# --------------------------------------------------------------------- #
# ledger sub-accounts
# --------------------------------------------------------------------- #
def test_per_query_snapshots_merge_into_session_total():
    s = Session("pram-crcw")
    r1 = s.solve("rowmin", MONGE)
    r2 = s.solve("staircase_min", STAIRCASE)
    r3 = s.solve("tube_min", COMPOSITE)
    parts = [r1, r2, r3]
    assert s.ledger.rounds == sum(r.snapshot["rounds"] for r in parts)
    assert s.ledger.work == sum(r.snapshot["work"] for r in parts)
    assert s.ledger.peak_processors == max(r.snapshot["peak_processors"] for r in parts)
    # the query log mirrors the results, in order
    assert [q.problem for q in s.queries] == ["rowmin", "staircase_min", "tube_min"]
    assert [q.snapshot for q in s.queries] == [r.snapshot for r in parts]


def test_query_isolation_restores_machine_ledger():
    s = Session("pram-crcw")
    machine = s.machine()
    before = machine.ledger
    r = s.solve("rowmin", MONGE)
    assert machine.ledger is before  # swap is scoped to the query
    assert r.ledger is not s.ledger and r.ledger.rounds == r.snapshot["rounds"]


def test_machine_reused_across_queries():
    s = Session("pram-crcw")
    s.solve("rowmin", MONGE)
    m1 = s._machine
    s.solve("tube_min", COMPOSITE)
    assert s._machine is m1


def test_network_machine_grows_but_session_persists():
    s = Session("hypercube")
    s.solve("rowmin", random_monge(4, 4, np.random.default_rng(0)))
    small = s._machine
    s.solve("rowmin", random_monge(32, 32, np.random.default_rng(0)))
    assert s._machine.network.size > small.network.size
    assert len(s.queries) == 2 and s.ledger.rounds > 0


def test_adopted_machine_is_used_verbatim():
    from repro.pram.ledger import CostLedger
    from repro.pram.machine import Pram
    from repro.pram.models import CREW

    m = Pram(CREW, 1 << 20, ledger=CostLedger())
    s = Session(machine=m)
    assert s.backend == "pram-crew"
    r = s.solve("rowmin", MONGE)
    assert s.machine() is m and r.backend == "pram-crew"


def test_unknown_backend_rejected():
    with pytest.raises(CapabilityError, match="unknown backend"):
        Session("mesh")


# --------------------------------------------------------------------- #
# config plumbing + certification
# --------------------------------------------------------------------- #
def test_acceptance_auto_backend_certified_tube_min():
    """The ISSUE acceptance query, verbatim."""
    result = repro.solve(
        "tube_min", COMPOSITE, backend="auto", config=ExecutionConfig(certify=True)
    )
    assert result.certified and result.certificate.ok
    assert result.backend == "pram-crcw" and result.strategy == "crcw"
    values, jargs = result  # tuple back-compat on the acceptance result
    assert values.shape == jargs.shape == (5, 5)


def test_session_config_is_the_default_and_overrides_refine_it():
    s = Session("pram-crcw", config=ExecutionConfig(strategy="halving"))
    r = s.solve("rowmin", MONGE)
    assert r.strategy == "halving"
    r2 = s.solve("rowmin", MONGE, strategy="sqrt")
    assert r2.strategy == "sqrt"
    np.testing.assert_array_equal(r.values, r2.values)



# --------------------------------------------------------------------- #
# the four applications share one session
# --------------------------------------------------------------------- #
def test_all_four_apps_share_one_session():
    s = Session("pram-crcw")

    # A4: string editing
    d = edit_distance_dag_parallel("kitten", "sitting", session=s)
    assert d == edit_distance_wagner_fischer("kitten", "sitting")[0]

    # A3: visible neighbors
    theta_p = np.linspace(0, 2 * np.pi, 7, endpoint=False)
    theta_q = np.linspace(0, 2 * np.pi, 9, endpoint=False)
    P = np.c_[np.cos(theta_p), np.sin(theta_p)]
    Q = np.c_[10 + 2 * np.cos(theta_q), 2 * np.sin(theta_q)]
    got = visible_neighbor_queries(P, Q, session=s)
    want = neighbor_queries_brute(P, Q)
    for name in want:
        np.testing.assert_allclose(got[name][0], want[name][0])

    # A2: largest two-corner rectangle
    pts = np.random.default_rng(2).random((24, 2))
    area, _, _ = largest_two_corner_rectangle(pts, session=s)
    assert np.isclose(area, largest_rectangle_brute(pts)[0])

    # A1: largest empty (corner) rectangle
    box = (0.0, 0.0, 1.0, 1.0)
    area, w, h = largest_empty_corner_rectangle(pts, box, session=s)
    ref = largest_empty_corner_rectangle_brute(pts, box)
    assert np.isclose(area, ref[0])

    # every app charged the shared session ledger
    assert s.ledger.rounds > 0 and s.ledger.work > 0
