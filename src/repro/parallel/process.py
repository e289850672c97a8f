"""One worker process: how the batch pool and the process shard run theirs.

A :class:`WorkerProcess` is a child process and two pipes, requests in and
responses out, one ``send_bytes`` per message.  The child builds its handler
once, ``setup(*args)``, and answers each request with ``handler(request)``
until the request pipe closes.  The snapshot is one of the arguments: under
``fork`` the child inherits them; under any other start method the parent
pickles them and sends them as the first message on the request pipe, after
the child has started.  (Handed to ``Process`` instead, they would be written
into the child's setup pipe inside ``Process.start()``, which blocks for
ever once the pickle outgrows a pipe buffer and the child dies before reading
it.)  Both
:class:`repro.engine.ProcessPoolExecutor` and
:class:`repro.service.workers.ProcessShard` run their workers this way; a
dead worker is EOF on its own response pipe, which names the work it held.

**Worker lifetime.**  A worker never outlives its parent: it holds *only*
its own two pipe ends (under fork it closes every inherited parent-side end,
its own and every other live worker's), so a parent that exits, crashes or
is SIGKILLed produces EOF on the request pipe; as a backstop the request
loop polls with a timeout and exits once ``os.getppid()`` is no longer the
spawning pid.  SIGINT is ignored in the worker: the parent decides whether
to drain or shut down.  :meth:`WorkerProcess.stop` closes the request pipe,
joins, and terminates a worker still alive after that.

**Pipe capacity.**  :meth:`WorkerProcess.request_capacity` is how many bytes
the request pipe holds before a ``send`` blocks: ``F_GETPIPE_SZ`` on Linux,
a stated 8 KB elsewhere.  A process shard sizes its window of un-acked frames
from it.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import multiprocessing.context
import os
import signal
import sys
import weakref
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Optional, Sequence, Union

if sys.platform == "linux":
    import fcntl

__all__ = ["SHARD_RETRIES", "WorkerProcess", "mp_context"]

#: Builds a worker's request handler inside the worker.
Setup = Callable[..., Callable[[bytes], bytes]]

#: How long a worker waits for a request before checking its parent is alive.
_PARENT_POLL_SECONDS = 0.5

#: Times work a dead worker held is resubmitted whole before it is split up to
#: find what keeps killing workers: the batch pool then bisects the shard, a
#: process shard replays its journal one object at a time.
SHARD_RETRIES = 1

#: Request-pipe capacity assumed where it cannot be read: the buffer
#: ``multiprocessing`` gives a Windows pipe (``connection.BUFSIZE``), below
#: the 16 KB a macOS pipe starts at.
_FALLBACK_PIPE_CAPACITY = 8192

#: Workers whose parent-side pipe ends are open in this process, whoever owns
#: them (pools and services may live side by side): a forked worker inherits
#: a copy of every one and must close it, or that worker's EOF never comes.
_live: "weakref.WeakSet[WorkerProcess]" = weakref.WeakSet()


def mp_context() -> multiprocessing.context.BaseContext:
    """The explicit multiprocessing context every worker is started from.

    ``fork`` where it is the safe platform default (Linux: children inherit
    the read-only snapshot as copy-on-write memory), ``spawn`` everywhere else —
    macOS forks can crash inside frameworks the parent already loaded, and
    Windows has no fork.  Always explicit, so the choice never follows a
    process-wide ``set_start_method``.  Looked up each time a worker starts:
    tests substitute ``spawn`` here to drive on Linux what those platforms
    run, workers that receive the snapshot as a pickle on their request pipe.
    """
    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _serve(
    setup: Setup,
    args: Optional[Sequence[Any]],
    requests: multiprocessing.connection.Connection,
    responses: multiprocessing.connection.Connection,
    parent_pid: int,
) -> None:
    """A worker's whole life: build the handler, answer requests in order.

    ``args`` is None when the worker was not forked: the arguments are then
    the first message on the request pipe.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for worker in list(_live):  # empty unless this process was forked
        worker._close_ends()
    if args is None:
        try:
            args = requests.recv()
        except (EOFError, OSError):
            return  # parent went away before sending them
    handle = setup(*args)
    while True:
        try:
            if not requests.poll(_PARENT_POLL_SECONDS):
                if os.getppid() != parent_pid:
                    break  # orphaned without an EOF: nothing useful left to do
                continue
            request = requests.recv_bytes()
        except (EOFError, OSError):
            break  # parent went away
        response = handle(request)
        try:
            responses.send_bytes(response)
        except OSError:
            break  # parent went away mid-response


class WorkerProcess:
    """A started worker: write ``requests``, read ``responses`` (EOF: it died)."""

    def __init__(self, setup: Setup, args: Sequence[Any], name: str):
        context = mp_context()
        forked = context.get_start_method() == "fork"
        # Pickled before the child exists, so an argument that cannot be
        # pickled raises here with no process to clean up.
        pickled = None if forked else ForkingPickler.dumps(tuple(args))
        request_rx, self.requests = context.Pipe(duplex=False)
        self.responses, response_tx = context.Pipe(duplex=False)
        _live.add(self)
        self.process = context.Process(
            target=_serve,
            args=(setup, tuple(args) if forked else None, request_rx, response_tx, os.getpid()),
            name=name,
            daemon=True,
        )
        self.process.start()
        # The child holds its own ends now; closing ours makes a worker death
        # surface as EOF on the response pipe instead of a hang.
        request_rx.close()
        response_tx.close()
        self.pid: int = self.process.pid  # type: ignore[assignment]
        if pickled is not None:
            self.send(pickled)  # a child already dead fails this with EPIPE

    def send(self, request: Union[bytes, memoryview]) -> None:
        """Ship one request; a dead worker is the reader's to notice (EOF)."""
        try:
            self.requests.send_bytes(request)
        except (OSError, ValueError):
            pass

    def request_capacity(self) -> int:
        """Bytes the request pipe holds before ``send`` blocks (read per call)."""
        if sys.platform == "linux":
            try:
                return fcntl.fcntl(self.requests.fileno(), fcntl.F_GETPIPE_SZ)
            except OSError:
                pass
        return _FALLBACK_PIPE_CAPACITY

    def stop(self) -> None:
        """Close the request pipe, join, terminate if still alive (idempotent)."""
        self.requests.close()
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        self._close_ends()

    def _close_ends(self) -> None:
        _live.discard(self)
        self.requests.close()
        self.responses.close()
