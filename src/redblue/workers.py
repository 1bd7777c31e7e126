"""Worker processes that run a search's trials beside the caller.

`search.iter_trials` deals its trials to shares, one per usable CPU up to
`search.TRIAL_SHARE_CAP`.  The caller runs one share; every other share
is a worker process, a `python` started over pipes (`main`) by the first
run that needs it and kept for the life of the caller's process.  A run
hands each worker its partition (R and B as given, sent once while the
worker holds it), spec, seed, budget and `anneal`, then trial numbers;
the worker runs the lowest it holds, as the caller would
(`search.run_trial`), and sends back each row's counts and the split's
int8 labels.

Trials come into play in order, at most `WINDOW` per share beyond the
lowest not yet yielded, dealt round-robin to the caller and the workers
that have said they are ready, so the caller never waits on a start-up.
The deal adapts to a share that lags, as on a host whose CPUs other
processes also use: the caller runs the lowest trial that it holds or
that a worker holds but has not started, calling that one back (`skip`),
and a worker about to run dry takes every other trial the caller holds.
Trial t depends only on `trial_seed(seed, t)`, so whichever share runs
it, the caller yields the same rows and splits, in trial order.

A trial's exception, in a worker or the caller, is raised once every
lower trial has been yielded and every share has stopped; it is the
lowest failing trial's.  A run that ends early, by a failure or by
closing it, stops the workers that still hold trials; the others wait
in the pool for the next run.  A worker that dies leaves its trials to
the caller, and no worker starts after that.  Messages are pickles
behind a 4-byte length, exchanged only with processes this module
started.
"""

from __future__ import annotations

import atexit
import heapq
import os
import pickle
import select
import signal
import struct
import sys
import threading
import traceback
from typing import Iterator

import numpy as np

from . import search
from .algebra import AlgebraSpec
from .cube import CubeSubset, LayerPartition

WINDOW = 8  # trials in play per share: held, run, or waiting to be yielded
AHEAD = 2  # a worker holding fewer is about to run dry

_HEADER = struct.Struct("<I")
# A worker imports this package from where the caller did.  The directory
# goes first on its path only when the interpreter does not already have
# it (a source tree, not site-packages), and no environment variable
# carries it on to the processes a worker starts.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_BOOT = (f"import sys\n"
         f"if {_SRC!r} not in sys.path: sys.path.insert(0, {_SRC!r})\n"
         f"from redblue.workers import main\n"
         f"main()\n")


class _Channel:
    """Length-prefixed pickles over a pair of pipe ends, read without
    blocking.

    Where the platform has eventfds, each message is announced on one
    before it is written, and a reader sleeps on both (`_wait`).  A pipe
    write wakes its reader as a partner that takes over the writer's CPU;
    the eventfd wakes it wherever a CPU is free, so a worker woken with a
    run's trials does not stall the caller on its way to its own share."""

    def __init__(self, rfd: int, wfd: int, bell_in: int | None, bell_out: int | None):
        os.set_blocking(rfd, False)
        self.rfd, self.wfd = rfd, wfd
        self.bell_in, self.bell_out = bell_in, bell_out
        self.fds = [rfd] if bell_in is None else [rfd, bell_in]
        self.buf = bytearray()

    def send(self, *msgs: tuple) -> None:
        """Write the messages at once."""
        frames = []
        for msg in msgs:
            data = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
            frames += (_HEADER.pack(len(data)), data)
        if self.bell_out is not None:
            os.eventfd_write(self.bell_out, 1)
        view = memoryview(b"".join(frames))
        while view:
            view = view[os.write(self.wfd, view):]

    def recv(self) -> tuple | None:
        """The next message, or None while no whole one has arrived.
        Raises EOFError once the other end has closed."""
        while True:
            if len(self.buf) >= _HEADER.size:
                end = _HEADER.size + _HEADER.unpack_from(self.buf)[0]
                if len(self.buf) >= end:
                    msg = pickle.loads(self.buf[_HEADER.size : end])
                    del self.buf[:end]
                    return msg
            try:
                data = os.read(self.rfd, 1 << 20)
            except BlockingIOError:
                if not self.buf:
                    return None
                select.select([self.rfd], [], [])  # the rest of a message is on its way
                continue
            if not data:
                raise EOFError
            self.buf += data


def _wait(chans: list[_Channel]) -> None:
    """Sleep until one of the channels has news: a message, part of one,
    its end closed, or a ring announcing one."""
    ready = select.select([fd for chan in chans for fd in chan.fds], [], [])[0]
    for chan in chans:
        if chan.bell_in in ready:
            os.eventfd_read(chan.bell_in)


def _bell() -> int | None:
    return os.eventfd(0, os.EFD_NONBLOCK) if hasattr(os, "eventfd") else None


class _RemoteTraceback(Exception):
    """A worker's traceback, chained to the exception it raised."""

    def __str__(self) -> str:
        return self.args[0]


class _Worker:
    """One worker process and what it holds for the run it serves."""

    def __init__(self) -> None:
        import subprocess

        self.bells = [_bell(), _bell()]  # to the worker, from it
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _BOOT, *map(str, self.bells)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                pass_fds=[fd for fd in self.bells if fd is not None])
        except OSError:
            self._close_bells()
            raise
        self.chan = _Channel(self.proc.stdout.fileno(), self.proc.stdin.fileno(),
                             self.bells[1], self.bells[0])
        self.ready = False
        self.part: tuple | None = None  # (k, R, B) of the partition it holds
        self.held: list[int] = []  # trials handed over and not yet answered, ascending

    def post(self, *msgs: tuple) -> None:
        """Send, unless the worker has died: reading then finds it gone."""
        try:
            self.chan.send(*msgs)
        except BrokenPipeError:
            pass

    def queued(self, taken: set[int]) -> int | None:
        """The lowest trial it holds but has presumably not started (it
        runs the lowest first), leaving out those called back."""
        return next((t for t in self.held[1:] if t not in taken), None)

    def stop(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self._close_bells()

    def _close_bells(self) -> None:
        for fd in self.bells:
            if fd is not None:
                os.close(fd)


_lock = threading.Lock()
_pid = os.getpid()
_started: list[_Worker] = []
_idle: list[_Worker] = []
_failed = False  # a worker died or could not start: no more start


def _take(n: int) -> list[_Worker]:
    """Up to n idle workers, started as needed, at most one per trial
    share beside the caller's."""
    global _pid, _failed
    with _lock:
        if os.getpid() != _pid:  # a forked child: the pipes are its parent's
            _pid, _failed = os.getpid(), False
            _started.clear()
            _idle.clear()
        got = _idle[:n]
        del _idle[:n]
        most = search.trial_shares(search.TRIAL_SHARE_CAP) - 1
        while len(got) < n and not _failed and len(_started) < most:
            try:
                worker = _Worker()
            except OSError:
                _failed = True
                break
            _started.append(worker)
            got.append(worker)
        return got


def _give(workers: list[_Worker]) -> None:
    with _lock:
        _idle.extend(w for w in workers if w in _started)


def _drop(worker: _Worker, died: bool) -> None:
    """Stop and forget a worker: one that died, after which no worker
    starts, or one that holds trials a run no longer needs."""
    global _failed
    with _lock:
        _failed = _failed or died
        if worker in _started:
            _started.remove(worker)
    worker.stop()


def shutdown() -> None:
    """Stop every worker this process started; a later run starts anew."""
    with _lock:
        workers = list(_started) if os.getpid() == _pid else []
        _started.clear()
        _idle.clear()
    for worker in workers:
        worker.stop()


atexit.register(shutdown)


def deal(
    part: LayerPartition,
    spec: AlgebraSpec,
    seed: int,
    budget: int | None,
    anneal: bool,
    first: int,
    trials: int,
    shares: int,
) -> Iterator[tuple[search.TrialResult, search.SplitState]]:
    """Run trials first..trials-1 on the caller and up to shares - 1
    workers, yielding each trial's row and split in trial order.  Returns
    the trials each share ran, the caller's first."""
    team = _take(shares - 1)
    workers = list(team)  # the live ones
    key = (part.k, part.R, part.B)
    mine: list[int] = []  # trials the caller holds, ascending
    done: dict[int, tuple[search.TrialResult, search.SplitState]] = {}
    failed: dict[int, tuple[Exception, Exception | None]] = {}  # what to raise, from what
    taken: set[int] = set()  # trials the caller called back from a worker
    briefed: set[_Worker] = set()  # workers sent this run
    rows_from = dict.fromkeys(team, 0)  # rows the caller took from each worker
    own = 0  # trials the caller ran
    nxt = out = first

    def hand(worker: _Worker, ts: list[int]) -> None:
        """Hand a worker trials, with the run first if it has not had it:
        one write, so it wakes once."""
        msgs = [("run", ts)]
        if worker not in briefed:
            briefed.add(worker)
            sent = None if worker.part == key else (part.k, part.R.mask, part.B.mask)
            worker.part = key
            msgs.insert(0, ("job", sent, spec.p, spec.q, seed, budget, anneal))
        worker.post(*msgs)
        worker.held = sorted(worker.held + ts)

    def answer(worker: _Worker, msg: tuple) -> None:
        if msg[0] == "ready":
            worker.ready = True
            return
        if msg[0] == "skipped":
            for t in msg[1]:
                worker.held.remove(t)
            return
        kind, t = msg[:2]
        worker.held.remove(t)
        if t in taken:  # begun before the call-back came: the caller ran it
            return
        if kind == "row":
            rows_from[worker] += 1
            ts = search.trial_seed(seed, t)
            labels = np.frombuffer(msg[4], dtype=np.int8)  # read-only
            done[t] = (search.TrialResult(t, ts, msg[2], msg[3]),
                       search.SplitState._of_checked(part, spec.p, spec.q, ts, labels))
        else:
            failed[t] = (msg[2], _RemoteTraceback(f"trial {t}, in a worker process:\n{msg[3]}"))

    def collect(wait: bool) -> None:
        """Take in what the workers sent; with `wait`, first sleep until
        one that holds trials has news."""
        if wait:
            _wait([w.chan for w in workers if w.held])
        for worker in list(workers):
            try:
                while (msg := worker.chan.recv()) is not None:
                    answer(worker, msg)
            except (EOFError, OSError):
                mine.extend(t for t in worker.held if t not in taken)
                mine.sort()
                worker.held.clear()
                workers.remove(worker)
                _drop(worker, died=True)

    try:
        while out < trials:
            collect(wait=False)
            while out in done:
                yield done.pop(out)
                out += 1
            if out in failed:
                exc, cause = failed[out]
                if cause is None:
                    raise exc
                raise exc from cause
            if out == trials:
                break
            stop = min(failed, default=trials)  # no trial past a failure is needed
            ready = [w for w in workers if w.ready]
            given: dict[_Worker, list[int]] = {w: [] for w in ready}
            cycle = [None, *ready]
            end = min(stop, out + WINDOW * len(cycle))
            for t in range(nxt, end):
                share = cycle[t % len(cycle)]
                (mine if share is None else given[share]).append(t)
            nxt = max(nxt, end)
            for worker, ts in given.items():
                if len(worker.held) + len(ts) < AHEAD and len(mine) > 1:
                    ts += mine[1::2]
                    del mine[1::2]
                if ts:
                    hand(worker, sorted(ts))
            # the lowest trial the caller holds, or one a worker has not started
            back = min(((t, w) for w in workers if (t := w.queued(taken)) is not None),
                       default=None, key=lambda tw: tw[0])
            if mine and mine[0] < stop and (back is None or mine[0] < back[0]):
                t = mine.pop(0)
            elif back is not None and back[0] < stop:
                t, worker = back
                taken.add(t)
                worker.post(("skip", [t]))
            else:
                collect(wait=True)
                continue
            try:
                done[t] = search.run_trial(part, spec, seed, t, budget, anneal)
            except Exception as exc:
                failed[t] = (exc, None)
            own += 1
    finally:
        busy = [w for w in workers if w.held]  # holding trials no one will read
        for worker in busy:
            _drop(worker, died=False)
        _give([w for w in workers if w not in busy])
    return [own, *rows_from.values()]


def _error(t: int, exc: Exception) -> tuple:
    """The message for a trial that raised `exc`: the exception itself
    when it survives pickling, else a RuntimeError naming it."""
    tb = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    return ("error", t, exc, tb)


def main() -> None:
    """Serve trials to the process that started this one, over stdin and
    stdout, until it closes its end."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)  # end with the caller's Ctrl-C, quietly
    out = os.dup(1)
    os.dup2(2, 1)  # a stray print goes to stderr, not into the messages
    bell_in, bell_out = (None if arg == "None" else int(arg) for arg in sys.argv[1:3])
    try:
        _serve(_Channel(0, out, bell_in, bell_out))
    except (EOFError, BrokenPipeError):  # the caller is done, or gone
        pass


def _serve(chan: _Channel) -> None:
    chan.send(("ready",))
    queue: list[int] = []  # a heap of the trials held, and of some called back
    held: set[int] = set()
    while True:
        # read all that was sent before each trial; sleep while nothing is held
        while (msg := chan.recv()) is not None or not held:
            if msg is None:
                _wait([chan])
            elif msg[0] == "job":
                if msg[1] is not None:
                    k, r, b = msg[1]
                    m = 3 * k + 1
                    part = LayerPartition(k, CubeSubset(m, r), CubeSubset(m, b))
                p, q, seed, budget, anneal = msg[2:]
                spec = AlgebraSpec(p, q)
            elif msg[0] == "run":
                held.update(msg[1])
                for t in msg[1]:
                    heapq.heappush(queue, t)
            else:  # skip
                dropped = [t for t in msg[1] if t in held]
                held.difference_update(dropped)
                if dropped:
                    chan.send(("skipped", dropped))
                if not held:
                    queue.clear()
        while (t := heapq.heappop(queue)) not in held:
            pass
        held.remove(t)
        try:
            row, state = search.run_trial(part, spec, seed, t, budget, anneal)
        except Exception as exc:
            chan.send(_error(t, exc))
        else:
            chan.send(("row", t, row.violations, row.solved, state.labels.tobytes()))

