"""The worker pool of the edge phase and the file writers.

Their work is numpy kernels that release the GIL, so `threads` workers can
run at once, but only if the scheduler puts them on different CPUs. Left
unpinned, two workers of a fresh `hrgen generate` took turns on one CPU:
their user+sys time equalled the wall time. So where `threads` is exactly
the number of CPUs the process may use, worker i is pinned to the i-th CPU
of the process's affinity mask. With fewer threads than CPUs the workers
stay unpinned: pinning them to the first CPUs of the mask would put every
such process on the same CPUs. Workers only compute: which worker runs
which block never changes a result.
"""

from __future__ import annotations

import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .errors import ParameterDomainError


def check_threads(threads):
    """Raises ParameterDomainError unless `threads` is an integer of at
    least 1; a bool is not a thread count."""
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral):
        raise ParameterDomainError(f"threads must be an integer, got {threads!r}")
    if threads < 1:
        raise ParameterDomainError(f"threads must be at least 1, got {threads}")


class WorkerPool(ThreadPoolExecutor):
    """A ThreadPoolExecutor of `threads` workers, each pinned to a CPU of
    its own when 1 < threads == the CPUs this process may use. The calling
    thread's affinity is never changed. `pinned` is True while every
    worker started so far is pinned; a failed pin leaves that worker
    unpinned and the pool working."""

    def __init__(self, threads):
        check_threads(threads)
        cpus = []
        if hasattr(os, "sched_getaffinity") and hasattr(os, "sched_setaffinity"):
            cpus = sorted(os.sched_getaffinity(0))
        self.pinned = 1 < threads == len(cpus)
        self._cpus = iter(cpus)
        self._lock = threading.Lock()
        super().__init__(
            max_workers=threads, initializer=self._pin if self.pinned else None
        )

    def _pin(self):
        with self._lock:
            cpu = next(self._cpus)
        try:
            os.sched_setaffinity(0, {cpu})  # pid 0: the calling worker thread
        except OSError:
            self.pinned = False
