"""Trials dealt to worker processes: the rows and splits of one share,
failures and early exits that stop every share, and no stray process."""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from redblue import search, workers
from redblue.cube import LayerPartition
from redblue.search import iter_trials, monte_carlo

from conftest import child_alive

SHARES = 3  # the caller and two workers
SRC = Path(__file__).resolve().parent.parent / "src"


def _ready(n):
    """Take n workers from the pool, wait until each has started up, and
    put them back."""
    team = workers._take(n)
    deadline = time.monotonic() + 60
    for worker in team:
        while not worker.ready:
            msg = worker.chan.recv()
            if msg is None:
                assert time.monotonic() < deadline, "a worker did not start up in 60 s"
                time.sleep(0.01)
            else:
                assert msg == ("ready",)
                worker.ready = True
    workers._give(team)
    return team


@pytest.fixture
def dealt(monkeypatch):
    """Three trial shares, both workers started up."""
    monkeypatch.setattr(search, "_usable_cpus", lambda: SHARES)
    monkeypatch.setattr(search, "START_AFTER_S", 0.0)
    return _ready(SHARES - 1)


def _one_share(*args, **kwargs):
    with mock.patch.object(search, "_usable_cpus", return_value=1):
        return list(iter_trials(*args, **kwargs))


def _ran(caplog):
    """The trials each share ran, from the last run's INFO line."""
    line = [r.getMessage() for r in caplog.records if r.name == "redblue.search"][-1]
    return [int(n) for n in re.search(r"share\(s\): (.*)", line).group(1).split(", ")]


def _assert_same(got, want):
    assert [row for row, _ in got] == [row for row, _ in want]
    assert all(a == b for (_, a), (_, b) in zip(got, want))  # labels included


@pytest.mark.parametrize("hill", [False, True], ids=["random", "hill"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_dealt_trials_equal_one_share(request, dealt, caplog, k, hill):
    part = request.getfixturevalue(f"part{k}")
    p, q = [(1, 2), (2, 2), (1, 3)][k % 3]
    budget = 20 if hill else None
    caplog.set_level("INFO", logger="redblue.search")
    # below, at and above the share count
    for trials in (SHARES - 1, SHARES, 2 * SHARES + 1):
        got = list(iter_trials(part, p, q, trials, 7 + k, budget))
        ran = _ran(caplog)
        _assert_same(got, _one_share(part, p, q, trials, 7 + k, budget))
        assert len(ran) == min(SHARES, trials) and sum(ran) == trials and ran[0] < trials


def test_dealt_run_longer_than_its_window(dealt, part2, caplog):
    trials = 5 * workers.WINDOW * SHARES
    caplog.set_level("INFO", logger="redblue.search")
    got = list(iter_trials(part2, 1, 3, trials, 21, budget=50, anneal=True))
    assert min(_ran(caplog)) > 0
    _assert_same(got, _one_share(part2, 1, 3, trials, 21, budget=50, anneal=True))


def test_one_cpu_one_trial_or_one_share_starts_no_process(part2):
    with mock.patch.object(workers, "deal", side_effect=AssertionError("trials dealt")), \
            mock.patch.object(subprocess, "Popen", side_effect=AssertionError("process started")):
        with mock.patch.object(search, "_usable_cpus", return_value=1):
            monte_carlo(part2, 1, 2, 5, 1)
        with mock.patch.object(search, "_usable_cpus", return_value=SHARES), \
                mock.patch.object(search, "START_AFTER_S", 0.0):
            monte_carlo(part2, 1, 2, 1, 1)
            list(iter_trials(part2, 1, 2, 5, 1, shares=1))  # as a memory cap may ask
            with pytest.raises(ValueError, match="shares"):
                next(iter_trials(part2, 1, 2, 5, 1, shares=0))


def test_trials_are_dealt_once_they_have_run_a_while(part2, monkeypatch):
    # a process whose trials have taken less than START_AFTER_S so far
    # runs them alone and starts no worker
    monkeypatch.setattr(search, "_usable_cpus", lambda: SHARES)
    with mock.patch.object(workers, "deal", wraps=workers.deal) as deal:
        monte_carlo(part2, 1, 2, 20, 1)
        assert not deal.called and 0 < search._spent < search.START_AFTER_S
        search._spent = search.START_AFTER_S
        monte_carlo(part2, 1, 2, 20, 1)
    assert deal.call_count == 1


def test_worker_exception_reaches_the_caller(dealt, part2, monkeypatch):
    # a budget of -1 fails every repair, but the caller's own trials run
    # without one, so only the workers' trials (1 and 2 of each 3) raise;
    # the caller's trial 0 is slow, so those failures arrive before it ends
    run = search.run_trial

    def caller_trial(part, spec, seed, t, budget, anneal):
        time.sleep(0.3 if t == 0 else 0)
        return run(part, spec, seed, t)

    monkeypatch.setattr(search, "run_trial", caller_trial)
    got = []
    with pytest.raises(ValueError, match="budget") as raised:
        got += iter_trials(part2, 1, 2, 9, 3, budget=-1)
    # trial 0 was yielded first, and the lowest failing trial raised
    assert [row.trial for row, _ in got] == [0]
    assert str(raised.value.__cause__).startswith("trial 1, in a worker process")
    # every share stopped before the raise: a worker that still held
    # trials was stopped, the others wait in the pool holding nothing
    assert set(workers._idle) == set(workers._started)
    assert not any(worker.held for worker in workers._started)
    assert all(worker.proc.poll() is not None for worker in dealt
               if worker not in workers._started)
    assert not workers._failed
    workers.shutdown()
    assert not child_alive()


def test_caller_exception_waits_for_lower_trials(dealt, part2, monkeypatch):
    # trial 3 is the caller's (3 % 3 == 0): its failure is raised once
    # trials 0..2, two of them from the workers, are yielded
    run = search.run_trial

    def caller_trial(part, spec, seed, t, budget, anneal):
        if t == 3:
            raise RuntimeError("trial 3 failed")
        return run(part, spec, seed, t, budget, anneal)

    monkeypatch.setattr(search, "run_trial", caller_trial)
    got = []
    with pytest.raises(RuntimeError, match="trial 3 failed"):
        got += iter_trials(part2, 1, 2, 12, 5)
    assert [row.trial for row, _ in got] == [0, 1, 2]
    _assert_same(got, _one_share(part2, 1, 2, 3, 5))
    assert not any(worker.held for worker in workers._started)


def test_closing_early_stops_every_share(dealt, part4):
    trials = iter_trials(part4, 1, 2, 500, 11)
    first = [next(trials) for _ in range(3)]
    trials.close()
    # the workers that held trials were stopped; the pool holds the rest
    assert set(workers._idle) == set(workers._started)
    assert not any(worker.held for worker in workers._started)
    assert all(worker.proc.poll() is not None for worker in dealt
               if worker not in workers._started)
    _assert_same(first, _one_share(part4, 1, 2, 3, 11))


def test_trial_shares_are_capped(monkeypatch):
    # a 64-CPU host deals to TRIAL_SHARE_CAP shares and starts one worker
    # fewer; the stand-in workers start no process
    monkeypatch.setattr(search, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(workers, "_Worker", object)
    monkeypatch.setattr(workers, "_failed", False)
    for name in ("_started", "_idle"):
        monkeypatch.setattr(workers, name, [])
    assert search.trial_shares(1000) == search.TRIAL_SHARE_CAP
    assert search.trial_shares(3) == 3
    assert len(workers._take(63)) == search.TRIAL_SHARE_CAP - 1


def test_lagging_worker_trials_are_called_back(dealt, part2, caplog):
    # a worker stopped before the run holds the trials dealt to it; the
    # caller calls back all but the one it presumes begun and runs them,
    # so once resumed the worker runs that one trial only
    trials = 3 * workers.WINDOW  # all dealt at the run's start
    caplog.set_level("INFO", logger="redblue.search")
    lagging = dealt[0]
    os.kill(lagging.proc.pid, signal.SIGSTOP)
    resume = threading.Timer(1.0, os.kill, (lagging.proc.pid, signal.SIGCONT))
    resume.start()
    try:
        got = list(iter_trials(part2, 1, 2, trials, 17))
    finally:
        resume.join()
    ran = _ran(caplog)
    assert ran[1] == 1 and sum(ran) == trials
    _assert_same(got, _one_share(part2, 1, 2, trials, 17))
    assert not any(worker.held for worker in workers._started)


def test_dead_worker_leaves_its_trials_to_the_caller(dealt, part3, monkeypatch):
    monkeypatch.setattr(workers, "_failed", False)  # restored after the test
    trials = iter_trials(part3, 1, 2, 40, 13)
    got = [next(trials)]
    dealt[0].proc.kill()
    got += trials
    _assert_same(got, _one_share(part3, 1, 2, 40, 13))
    assert dealt[0] not in workers._started and workers._failed


def test_hand_built_partition_is_used_as_given(dealt, part2):
    # the layers swapped: a worker that rebuilt layer_partition(2) would
    # send labels that no split of this base can hold
    swapped = LayerPartition(2, part2.B, part2.R)
    got = list(iter_trials(swapped, 1, 2, 7, 4))
    _assert_same(got, _one_share(swapped, 1, 2, 7, 4))
    assert all(np.array_equal(state.labels == 0, swapped.layers[0]) for _, state in got)


def test_unguarded_script_deals_trials(tmp_path, part3):
    # no `if __name__ == "__main__"` guard: workers do not re-run the
    # script; and with no PYTHONPATH, a worker finds the package where
    # the caller did
    script = tmp_path / "unguarded.py"
    script.write_text(
        "import logging, os, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from redblue import search, workers\n"
        "from redblue.cube import layer_partition\n"
        "logging.basicConfig(stream=sys.stderr, level=logging.INFO, format='%(message)s')\n"
        "search._usable_cpus = lambda: 2\n"
        "search.START_AFTER_S = 0.0\n"
        "part = layer_partition(3)\n"
        "first = search.monte_carlo(part, 1, 2, 30, 5)\n"
        "(worker,) = workers._started\n"
        "while not worker.ready:\n"
        "    worker.ready = worker.chan.recv() == ('ready',) or workers._wait([worker.chan])\n"
        "again = search.monte_carlo(part, 1, 2, 30, 5)\n"
        "assert first == again and 'PYTHONPATH' not in os.environ\n"
        "print([row.violations for row in first.rows])\n"
    )
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    caller, worker = map(int, proc.stderr.splitlines()[-1].split(": ")[1].split(", "))
    assert worker > 0
    want = [row.violations for row in monte_carlo(part3, 1, 2, 30, 5).rows]
    assert proc.stdout == f"{want}\n"
