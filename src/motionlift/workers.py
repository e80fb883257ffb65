"""``Workers``, the worker threads of one call: every thread the package starts."""

from __future__ import annotations

import ctypes
import functools
import queue
import threading
from pathlib import Path

import numpy as np


@functools.cache
def _openblas():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None when
    numpy carries no such library (another BLAS, or another numpy build)."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))  # the copy numpy has already loaded
        try:
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class Workers:
    """The n workers of one call, shared by all of its phases.

    The calling thread is worker 0.  Entering the context starts n - 1
    threads, which serve every ``run`` until the context exits and ends
    them, so none outlives the call.  While n > 1 the context also holds
    numpy's bundled OpenBLAS at one thread, so that a worker's matrix
    product does not start BLAS threads that compete with the other
    workers, and restores the count it found on exit (without that
    library this does nothing).
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n_threads must be >= 1, got {n}")
        self.n = n
        self._inboxes: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._blas = None  # (set, count to restore) while the cap holds

    def __enter__(self) -> "Workers":
        if self.n > 1:
            blas = _openblas()
            if blas is not None:
                get, put = blas
                self._blas = (put, get())
                put(1)
            try:
                for _ in range(self.n - 1):
                    inbox = queue.SimpleQueue()
                    thread = threading.Thread(target=self._serve, args=(inbox,), daemon=True)
                    thread.start()
                    self._inboxes.append(inbox)
                    self._threads.append(thread)
            except BaseException:
                self.__exit__()
                raise
        return self

    def __exit__(self, *exc) -> None:
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join()
        self._inboxes.clear()
        self._threads.clear()
        if self._blas is not None:
            put, count = self._blas
            put(count)
            self._blas = None

    def _serve(self, inbox: queue.SimpleQueue) -> None:
        while (task := inbox.get()) is not None:
            error = None
            try:
                task[0](task[1])
            except BaseException as exc:  # re-raised by ``run`` in the calling thread
                error = exc
            # drop the phase's work, and the buffers it holds, before the
            # next phase is dealt
            task = None
            self._done.put(error)

    def run(self, n_items: int, work) -> None:
        """Run ``work(w, i)`` for every item i < n_items and return when all
        are done.  min(n, n_items) workers each take the next item no one
        has taken until none is left, so a worker that is held up takes
        fewer; w is the taking worker's index, for buffers of its own.  An
        exception raised by any of them is raised here, once every worker
        has finished."""
        items = iter(range(n_items))
        lock = threading.Lock()

        def take(w):
            while True:
                with lock:
                    i = next(items, None)
                if i is None:
                    return
                work(w, i)

        n_workers = min(self.n, n_items)
        for w in range(1, n_workers):
            self._inboxes[w - 1].put((take, w))
        try:
            take(0)
        finally:
            # the others finish this phase before anything else happens
            errors = [self._done.get() for _ in range(1, n_workers)]
        for exc in errors:
            if exc is not None:
                raise exc
