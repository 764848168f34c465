"""Helper threads for the kernels' jobs, and the BLAS thread count they depend on.

_Helpers is the one way work reaches another CPU: predict_file shares a
CNN file's windows with it, Segmenter.backward hands it its layers'
weight-gradient jobs (see ddkseg.nn.layers), and BiLSTM.forward, in
training as in eval, its next block's input projection (see
ddkseg.nn.lstm). Each opens its own and joins it before it returns, so
a helper lives only as long as its caller's jobs. It alone decides
whether a helper starts, so no caller asks BLAS anything. Only cli.main,
which owns the process, sets BLAS to one thread around each command, so
that helpers start there in the default environment too.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading

import numpy as np

# numpy's bundled OpenBLAS (numpy 2 wheels) exports its thread-count query
# and setter under these names; other builds may not.
BLAS_THREADS_SYMBOL = "scipy_openblas_get_num_threads64_"
BLAS_SET_THREADS_SYMBOL = "scipy_openblas_set_num_threads64_"


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads(count: int | None = None) -> int | None:
    """The thread count numpy's BLAS runs its GEMMs with, or None where the
    BLAS numpy loaded exports no BLAS_THREADS_SYMBOL (about 30 us a call).
    Given a count, also set BLAS to that many threads and return the count
    it had before; where it exports no BLAS_SET_THREADS_SYMBOL, set nothing
    and return None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        query = getattr(lib, BLAS_THREADS_SYMBOL)
        setter = None if count is None else getattr(lib, BLAS_SET_THREADS_SYMBOL)
    except (AttributeError, OSError):
        return None
    query.argtypes = []
    query.restype = ctypes.c_int
    previous = query()
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(count)
    return previous


class _Helpers:
    """Up to n - 1 helper threads, one per further usable CPU, that run the
    jobs submitted to them in order, from one queue.Queue(maxsize=bound) (0:
    unbounded); with no helper, submit runs the job inline. Helpers start
    only while blas_threads() is 1, not where it is None: beside OpenBLAS's
    own threads (its default, 2 CPUs) `ddkseg segment` of 24 CNN files took
    4.57 s with window helpers against 3.50 s inline, and an eval BiLSTM
    stack forward 211 ms against 190 ms. On exit every helper that started
    is joined, also when the body raised, and then the first exception a job
    raised is raised; the jobs after it are skipped. A helper drops each job
    before it awaits the next, so what a job holds is freed by the time
    wait() returns: a helper that kept its last job until the next get()
    raised train-lstm's peak_rss_mb from 173 to 185 MB.
    """

    def __init__(self, n: int, bound: int = 0):
        self._errors: list[BaseException] = []
        self._queue = queue.Queue(maxsize=bound)
        helpers = min(_usable_cpus(), n) - 1
        if helpers > 0 and blas_threads() != 1:
            helpers = 0
        self._threads = [threading.Thread(target=self._serve) for _ in range(helpers)]

    def __enter__(self) -> "_Helpers":
        try:
            for thread in self._threads:
                thread.start()
        except BaseException as exc:
            self.__exit__(type(exc), exc, exc.__traceback__)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self._errors.append(exc)  # the helpers skip the jobs still queued
        started = [thread for thread in self._threads if thread.ident is not None]
        for _ in started:
            self._queue.put(None)
        for thread in started:
            thread.join()
        if self._errors and self._errors[0] is not exc:
            raise self._errors[0]

    def submit(self, job) -> None:
        """Queue job() for a helper, or run it now when there is none. With
        a bound, wait first while `bound` jobs are already waiting."""
        if self._threads:
            self._queue.put(job)
        else:
            job()

    def wait(self) -> None:
        """Return once every job submitted so far has run; raise the first
        exception one of them raised."""
        self._queue.join()
        if self._errors:
            raise self._errors[0]

    def help(self) -> None:
        """Run queued jobs on the calling thread until none is left."""
        self._serve(block=False)

    def _serve(self, block: bool = True) -> None:
        """Run queued jobs until the None that __exit__ queues, or, with
        block=False, until the queue is empty."""
        while True:
            try:
                job = self._queue.get(block)
            except queue.Empty:
                return
            if job is None:
                return
            if not self._errors:
                try:
                    job()
                except BaseException as exc:  # raised by wait() or on exit
                    self._errors.append(exc)
            del job  # before wait() can return, not at the next get()
            self._queue.task_done()
