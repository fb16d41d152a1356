"""ForkedCall, the forked child behind the split diagnose walk and the
sweep's refined run: what comes back through its pipe, how an unwanted
child is stopped, and the in-process path where fork is not available.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from slipdisk import CflError
from slipdisk._forked import ForkedCall


def test_a_large_result_comes_back_without_deadlock():
    # 32 MB is far beyond a pipe's buffer: result() must receive before it joins
    with ForkedCall(lambda: (os.getpid(), np.arange(4 << 20, dtype=float))) as child:
        pid, values = child.result()
    assert pid != os.getpid()
    assert np.array_equal(values, np.arange(4 << 20, dtype=float))
    assert multiprocessing.active_children() == []


def test_the_childs_exception_keeps_its_type_and_fields():
    def trip():
        raise CflError(dt=0.5, bound=0.25, max_u=3.0, nu=0.01)

    with ForkedCall(trip) as child, pytest.raises(CflError) as info:
        child.result()
    assert (info.value.dt, info.value.bound, info.value.max_u, info.value.nu) == (
        0.5, 0.25, 3.0, 0.01)
    assert multiprocessing.active_children() == []


def test_stop_kills_a_child_that_is_no_longer_wanted():
    start = time.perf_counter()
    with ForkedCall(lambda: time.sleep(60)):
        pass
    assert time.perf_counter() - start < 10.0
    assert multiprocessing.active_children() == []


def test_without_fork_the_callable_runs_here_when_the_result_is_read(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    calls = []
    child = ForkedCall(lambda: calls.append(os.getpid()) or "done")
    assert calls == []
    assert child.result() == "done"
    assert calls == [os.getpid()]
    child.stop()
