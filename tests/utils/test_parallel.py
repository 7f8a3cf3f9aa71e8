"""The shared executor: serial == parallel, in order, every time."""

import os

import pytest

from repro.errors import ConfigurationError
from repro.utils.parallel import fork_available, run_sharded


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"boom {x}")


def pid(_):
    return os.getpid()


def test_serial_maps_in_order():
    assert run_sharded(square, [3, 1, 2]) == [9, 1, 4]


def test_empty_items_return_empty_list():
    assert run_sharded(square, [], workers=4) == []


def test_single_item_skips_the_pool():
    # len(items) == 1 must not pay fork overhead — and must still work
    # with a non-picklable closure, proving the pool was skipped.
    assert run_sharded(lambda x: x + 1, [41], workers=8) == [42]


def test_one_cpu_runs_in_the_calling_process(monkeypatch):
    # A pool is capped at the CPU count; capped to one process it would
    # only add fork cost, so the map runs serially right here.
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert run_sharded(pid, [1, 2, 3], workers=4) == [os.getpid()] * 3


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
def test_two_cpus_still_fork(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert os.getpid() not in run_sharded(pid, [1, 2, 3], workers=4)


def test_negative_workers_rejected():
    with pytest.raises(ConfigurationError):
        run_sharded(square, [1], workers=-1)


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
@pytest.mark.parametrize("workers", [1, 2, 5])
def test_parallel_matches_serial_element_wise(workers):
    items = list(range(11))
    assert run_sharded(square, items, workers=workers) == \
        run_sharded(square, items)


@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
def test_more_workers_than_items_is_fine():
    assert run_sharded(square, [2, 3], workers=64) == [4, 9]


def test_worker_exception_propagates():
    with pytest.raises(ValueError, match="boom"):
        run_sharded(boom, [1, 2], workers=2)
    with pytest.raises(ValueError, match="boom"):
        run_sharded(boom, [1, 2])


def test_generator_input_accepted():
    assert run_sharded(square, (x for x in (2, 4))) == [4, 16]
