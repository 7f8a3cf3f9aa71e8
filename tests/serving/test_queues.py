"""Admission queues: arrival order, bounds, shedding, and head ranks.

The serving chip takes requests off the head of ``requests`` itself, so
the tests pop with ``popleft`` as it does.
"""

import math

import pytest

from repro.errors import SimulationError
from repro.serving.queues import AdmissionQueue
from repro.serving.tenancy import Request


def req(seq, arrival, deadline=math.inf, tenant="t"):
    return Request(
        tenant=tenant, index=seq, arrival_ms=arrival,
        deadline_ms=deadline, seq=seq,
    )


class TestOrder:
    @pytest.mark.parametrize("discipline", ["fifo", "edf"])
    def test_pops_in_offer_order(self, discipline):
        q = AdmissionQueue(discipline=discipline)
        for r in (req(0, 1.0, 4.0), req(3, 1.0, 4.0), req(7, 2.5, 5.5)):
            assert q.offer(r) is None
        assert [q.requests.popleft().seq for _ in range(3)] == [0, 3, 7]

    @pytest.mark.parametrize("late", [
        pytest.param(req(2, 0.5, 9.0), id="earlier-arrival"),
        pytest.param(req(2, 1.0, 3.0), id="earlier-deadline"),
        pytest.param(req(0, 1.0, 9.0), id="lower-seq"),
        pytest.param(req(1, 1.0, 9.0), id="repeated-seq"),
    ])
    def test_out_of_order_offer_raises(self, late):
        q = AdmissionQueue(discipline="edf")
        q.offer(req(1, 1.0, 4.0))
        with pytest.raises(SimulationError, match="out-of-order"):
            q.offer(late)
        assert [r.seq for r in q.requests] == [1]

    def test_empty_queue_takes_any_offer(self):
        q = AdmissionQueue()
        q.offer(req(5, 3.0))
        q.requests.popleft()
        assert q.offer(req(1, 1.0)) is None


class TestFIFO:
    def test_full_queue_sheds_incoming(self):
        q = AdmissionQueue(capacity=2, discipline="fifo")
        q.offer(req(0, 0.0))
        q.offer(req(1, 1.0))
        shed = q.offer(req(2, 2.0))
        assert shed is not None and shed.seq == 2
        assert q.depth == 2


class TestEDF:
    def test_sheds_incoming_when_it_is_the_laxest(self):
        q = AdmissionQueue(capacity=1, discipline="edf")
        q.offer(req(0, 0.0, deadline=1.0))
        shed = q.offer(req(1, 0.5, deadline=50.0))
        assert shed is not None and shed.seq == 1

    def test_full_queue_sheds_the_newcomer_on_a_deadline_tie(self):
        q = AdmissionQueue(capacity=2, discipline="edf")
        q.offer(req(0, 0.0, deadline=5.0))
        q.offer(req(1, 1.0, deadline=6.0))
        shed = q.offer(req(2, 1.0, deadline=6.0))
        assert shed is not None and shed.seq == 2
        assert [q.requests.popleft().seq for _ in range(2)] == [0, 1]


class TestPeekKey:
    def test_edf_ranks_by_deadline(self):
        q = AdmissionQueue(discipline="edf")
        q.offer(req(4, 2.0, deadline=7.0))
        q.offer(req(5, 3.0, deadline=8.0))
        assert q.peek_key() == (7.0, 2.0, 4)

    def test_fifo_ranks_by_arrival(self):
        q = AdmissionQueue(discipline="fifo")
        q.offer(req(4, 2.0, deadline=7.0))
        q.offer(req(5, 3.0, deadline=8.0))
        assert q.peek_key() == (2.0, 2.0, 4)


class TestValidation:
    def test_unknown_discipline(self):
        with pytest.raises(SimulationError):
            AdmissionQueue(discipline="lifo")

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            AdmissionQueue(capacity=0)

    def test_peek_empty(self):
        assert AdmissionQueue().peek_key() is None
