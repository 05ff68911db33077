"""The one fork fan-out: :func:`repro.utils.proc.fork_map`.

Sweep shards and campaign jobs both run through it, so its contract is
checked here once: item order, one item at a time, failures that name
their item, no child outliving a failed call, and the in-process
fallback of :func:`repro.utils.proc.can_fork`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.errors import SearchError
from repro.utils.proc import can_fork, fork_map


def _label(item) -> str:
    return f"item {item}"


@pytest.fixture(autouse=True)
def _forks_and_reaps():
    """Each test starts where a fan-out may fork and leaves no child."""
    assert can_fork(), f"fork_map would not fork: {threading.enumerate()}"
    yield
    assert multiprocessing.active_children() == []


class TestForkMap:
    def test_results_come_back_in_item_order(self):
        def square(i):
            time.sleep(0.01 * (7 - i))  # later items finish first
            return i * i, os.getpid()

        out = fork_map(square, range(7), 3, _label)
        assert [value for value, _ in out] == [i * i for i in range(7)]
        pids = {pid for _, pid in out}
        assert len(pids) == 3 and os.getpid() not in pids

    def test_a_slow_item_holds_up_only_its_child(self):
        def run(i):
            if i == 0:
                time.sleep(0.5)
            return os.getpid()

        pids = fork_map(run, range(6), 2, _label)
        assert pids[0] not in pids[1:]
        assert len(set(pids[1:])) == 1

    def test_child_exception_names_its_item(self):
        def run(i):
            if i == 2:
                raise ValueError("boom")
            return i

        with pytest.raises(SearchError, match=r"^item 2 failed: ValueError: boom$"):
            fork_map(run, range(4), 2, _label)

    def test_silent_child_death_names_its_item(self):
        def run(i):
            if i == 1:
                os._exit(3)
            return i

        with pytest.raises(
            SearchError,
            match=r"^item 1 exited with code 3 before sending its results$",
        ):
            fork_map(run, range(4), 2, _label)

    @pytest.mark.parametrize("error", [ValueError("boom"), KeyboardInterrupt()])
    def test_parent_exception_kills_every_child(self, error):
        parent = os.getpid()

        def run(i):
            if os.getpid() == parent:
                raise error
            time.sleep(60)

        started = time.monotonic()
        with pytest.raises(type(error)):
            fork_map(run, range(3), 2, _label, own=1)
        assert time.monotonic() - started < 30


class TestFallback:
    @pytest.mark.parametrize(
        "rule", ["no children", "only own items", "in a child", "no fork"]
    )
    def test_each_fallback_runs_in_process(self, monkeypatch, rule):
        children, own = (0, 0) if rule == "no children" else (2, 0)
        if rule == "only own items":
            own = 3
        elif rule == "in a child":
            monkeypatch.setattr(multiprocessing, "parent_process", object)
        elif rule == "no fork":
            monkeypatch.setattr(
                multiprocessing, "get_all_start_methods", lambda: ["spawn"]
            )
        pids = fork_map(lambda i: os.getpid(), range(3), children, _label, own=own)
        assert pids == [os.getpid()] * 3

    def test_another_thread_keeps_it_in_process(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, daemon=True)
        thread.start()
        try:
            pids = fork_map(lambda i: os.getpid(), range(3), 2, _label)
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        assert pids == [os.getpid()] * 3

    def test_in_process_errors_propagate_unwrapped(self):
        def run(i):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            fork_map(run, range(2), 0, _label)
