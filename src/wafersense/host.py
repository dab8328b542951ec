"""What this process may use of the machine it runs on."""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import contextmanager


def cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextmanager
def forked(fn, *args):
    """Run ``fn(*args)`` in a forked process while the block runs here. Yields a callable
    that waits for ``fn``'s result and returns it, or raises the exception ``fn`` raised;
    its ``pid`` is the process's.

    The process pickles its one outcome to a pipe and leaves only through ``os._exit``, so
    it never runs the caller's ``finally`` blocks or flushes the caller's buffers. However
    the block ends, the process is killed and reaped: it has nothing left to do once its
    outcome is read."""
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:  # the forked process: it never returns into the caller
        try:
            os.close(reader)
            with open(writer, "wb") as out:
                try:
                    outcome = True, fn(*args)
                except Exception as exc:
                    outcome = False, exc
                pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(writer)
    results = open(reader, "rb")

    def result():
        try:
            returned, value = pickle.load(results)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(f"the process forked to run {fn.__qualname__} (pid {pid}) "
                               "ended without a result") from None
        if not returned:
            raise value
        return value

    result.pid = pid
    try:
        yield result
    finally:
        results.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
