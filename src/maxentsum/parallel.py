"""Ordered job map for the suites' trial chunks, and for the optimizer's
single job, which runs inline and is where a benchmark can pause its clock."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import DomainError

T = TypeVar("T")
R = TypeVar("R")

THREADS_ENV = "MAXENT_THREADS"


def thread_count() -> int:
    """Worker cap from MAXENT_THREADS; 0 or unset means 1.

    Every job here is deterministic, and threads pay off little, so they run
    only when asked for: the eight 65,536-trial suite calls of perfbench's
    ``certify`` take 0.063-0.064 s at 1 thread and 0.062-0.064 s at 2
    (medians of 12 in each of 3 runs, 2-core x86-64).
    Any value other than a non-negative integer raises :class:`DomainError`.
    """
    raw = os.environ.get(THREADS_ENV, "").strip() or "0"
    if not raw.isdecimal():
        raise DomainError(f"{THREADS_ENV} must be a non-negative integer, got {raw!r}")
    return int(raw) or 1


def ordered_map(fn: Callable[[T], R], jobs: Sequence[T]) -> list[R]:
    """Map ``fn`` over ``jobs``, preserving job order in the result.

    Results are identical for any worker count: jobs are independent and the
    reduction is ordered.  A single job runs inline without reading
    ``MAXENT_THREADS``.
    """
    workers = min(thread_count(), len(jobs)) if len(jobs) > 1 else 1
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))
