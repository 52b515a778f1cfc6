"""Where the sweep engine's chunks execute.

An executor maps a picklable function over a sequence of payloads and
yields results as they complete.  Two implementations:

* :class:`SerialExecutor` — in-process, in-order; zero overhead, exact
  per-item progress ordering;
* :class:`MultiprocessExecutor` — a pool of worker processes
  (:class:`concurrent.futures.ProcessPoolExecutor`); results arrive in
  completion order.

:func:`make_executor` picks between them from a worker count.  Every
executor is a context manager with a uniform, idempotent
:meth:`~Executor.close`: the pool executor creates its worker pool on
first use and releases it only on ``close()``, so teardown is
deterministic rather than left to GC-timed pool finalisers.  A closed
executor raises :class:`~repro.exceptions.AnalysisError` on further
use.

Because every sweep work item derives its own RNG from the root seed
and its own spawn key (:func:`repro.rng.default_rng`, see
:mod:`repro.engine.sweep`), both executors produce bit-identical sweep
results for the same spec — the cross-executor conformance suite
(``tests/test_engine_conformance.py``) asserts exactly this.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from types import TracebackType
from typing import TYPE_CHECKING, Protocol, TypeVar

from repro.exceptions import AnalysisError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_P = TypeVar("_P")
_R = TypeVar("_R")


class Executor(Protocol):
    """What the engine needs from an executor."""

    jobs: int

    def map_unordered(
        self, fn: Callable[[_P], _R], payloads: Sequence[_P]
    ) -> Iterator[_R]:
        """Apply ``fn`` to every payload, yielding results as ready."""
        ...  # pragma: no cover - protocol

    def close(self) -> None:
        """Release worker resources (idempotent)."""
        ...  # pragma: no cover - protocol

    def __enter__(self) -> "Executor":
        ...  # pragma: no cover - protocol

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        ...  # pragma: no cover - protocol


class _ClosingMixin:
    """Shared context-manager plumbing around a ``close()`` method."""

    _closed = False

    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise AnalysisError(
                f"{type(self).__name__} has been closed; create a new one"
            )

    def __enter__(self):
        self._check_open()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class SerialExecutor(_ClosingMixin):
    """Run every payload in the calling process, in order."""

    jobs = 1

    def map_unordered(
        self, fn: Callable[[_P], _R], payloads: Sequence[_P]
    ) -> Iterator[_R]:
        self._check_open()
        for payload in payloads:
            yield fn(payload)


class MultiprocessExecutor(_ClosingMixin):
    """Run payloads on a persistent pool of worker processes.

    The pool is created lazily on the first :meth:`map_unordered` call
    and reused by any later call.  :meth:`close` (or the context
    manager) tears it down deterministically; without it the pool would
    linger until garbage collection (a ``__del__`` fallback still cleans
    up, but don't rely on its timing).

    Teardown never signals a worker.  A worker killed while it writes a
    result holds the result queue's lock for good, and the pool's own
    threads then wait on it forever: ``multiprocessing.Pool.terminate()``
    wedges this way on a loaded single CPU when a call was abandoned
    with work in flight.  :meth:`close` instead lets workers exit on
    queue sentinels, after cancelling whatever an abandoned call left
    queued; payloads already running finish first.

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` uses ``os.cpu_count()``.
        ``fn`` and every payload must be picklable (the engine's chunk
        runner and :class:`~repro.engine.sweep.SweepSpec` are).
    """

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise AnalysisError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None
        self._clean = True

    def _ensure_pool(self) -> "ProcessPoolExecutor":
        if self._pool is None:
            # Imported on first use, so a serial run never loads it.
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def map_unordered(
        self, fn: Callable[[_P], _R], payloads: Sequence[_P]
    ) -> Iterator[_R]:
        from concurrent.futures import as_completed

        self._check_open()
        payloads = list(payloads)
        if not payloads:
            return
        pool = self._ensure_pool()
        # Flag this call as in-flight until the consumer drains it; an
        # abandoned iterator (interrupt, failed shard) leaves the flag
        # down permanently, so close() cancels what is still queued.
        clean_before = self._clean
        self._clean = False
        futures = [pool.submit(fn, payload) for payload in payloads]
        for future in as_completed(futures):
            yield future.result()
        self._clean = clean_before

    def close(self) -> None:
        if self._pool is not None:
            # A drained pool has nothing queued.  After an abandoned
            # call, cancel its queued payloads rather than wait for
            # them; the few already handed to a worker still finish.
            self._pool.shutdown(wait=True, cancel_futures=not self._clean)
            self._pool = None
        super().close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        # Finaliser boundary: raising from __del__ only produces an
        # "exception ignored" warning at arbitrary GC time; close()
        # already happened on every non-leaked path.
        # repro-lint: disable=ERR002
        except Exception:
            pass


def make_executor(jobs: int | None) -> Executor:
    """``jobs`` ≤ 1 (or ``None``) → serial; otherwise a process pool.

    Use the returned executor as a context manager (or call
    ``close()``) so pools tear down deterministically.
    """
    if jobs is not None and jobs < 1:
        raise AnalysisError(f"jobs must be >= 1, got {jobs}")
    if jobs is None or jobs == 1:
        return SerialExecutor()
    return MultiprocessExecutor(jobs)
