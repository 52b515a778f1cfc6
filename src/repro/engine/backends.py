"""Where whole shard invocations run: local subprocesses.

The in-process executors of :mod:`repro.engine.executors` parallelise
*chunks* within one sweep invocation; a :class:`LocalBackend` runs
*shard invocations themselves* — each one a full ``python -m repro
sweep-run --shard I/N ...`` command — as subprocesses of this machine.
The orchestrator (:mod:`repro.engine.orchestrator`) owns the policy
(which shard, when, retries); the backend owns the mechanics, through a
deliberately tiny, non-blocking contract:

* :meth:`~LocalBackend.launch` starts a command, appending its
  stdout/stderr to a log file, and returns the ``Popen`` handle;
* :meth:`~LocalBackend.poll` returns the exit code, or ``None``
  while still running;
* :meth:`~LocalBackend.cancel` kills the job (idempotent);
* :attr:`~LocalBackend.slots` is how many jobs may run at once.
"""

from __future__ import annotations

import subprocess
from collections.abc import Mapping, Sequence
from pathlib import Path
from types import TracebackType

from repro.exceptions import DispatchError


def worker_env() -> dict[str, str]:
    """A child environment guaranteeing ``import repro`` works.

    Every dispatcher (orchestrator, session submits) launches workers
    as ``python -m repro ...`` commands; the repro package's own source
    root is prepended to ``PYTHONPATH`` so the child resolves the same
    code the parent runs, wherever its working directory lands.
    """
    import os as _os

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(_os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{_os.pathsep}{existing}"
    return env


class LocalBackend:
    """Run shard commands as local subprocesses, up to ``slots`` at a time.

    Parameters
    ----------
    slots:
        Concurrent worker processes (the orchestrator's ``--workers``).
    """

    def __init__(self, slots: int = 1) -> None:
        if slots < 1:
            raise DispatchError(f"backend slots must be >= 1, got {slots}")
        self.slots = slots
        self._procs: list[subprocess.Popen] = []
        self._logs: dict[int, object] = {}

    def launch(
        self,
        argv: Sequence[str],
        log_path: str | Path,
        env: Mapping[str, str] | None = None,
    ) -> subprocess.Popen:
        """Start ``argv``, appending its output to ``log_path``.

        ``env``, when given, *replaces* the child environment (callers
        build it from ``os.environ`` plus overrides).  Raises
        :class:`~repro.exceptions.DispatchError` when the command
        cannot be started at all.
        """
        log_path = Path(log_path)
        log_path.parent.mkdir(parents=True, exist_ok=True)
        # Append, not truncate: a retried shard's attempts share one log.
        log = log_path.open("ab")
        try:
            proc = subprocess.Popen(
                list(argv),
                stdout=log,
                stderr=subprocess.STDOUT,
                env=dict(env) if env is not None else None,
            )
        except OSError as exc:
            log.close()
            raise DispatchError(
                f"failed to launch {argv[0]!r}: {exc}"
            ) from exc
        self._procs.append(proc)
        self._logs[proc.pid] = log
        return proc

    def poll(self, handle: object) -> int | None:
        """Exit code of the job, or ``None`` while it is still running."""
        proc = self._as_proc(handle)
        code = proc.poll()
        if code is not None:
            self._release_log(proc)
        return code

    def cancel(self, handle: object) -> None:
        """Kill the job if still running (idempotent, best-effort)."""
        proc = self._as_proc(handle)
        if proc.poll() is None:
            proc.kill()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
                pass
        self._release_log(proc)

    def close(self) -> None:
        """Kill and reap every job still running (idempotent)."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self._release_log(proc)
        self._procs.clear()

    def __enter__(self) -> "LocalBackend":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # ------------------------------------------------------------------
    @staticmethod
    def _as_proc(handle: object) -> subprocess.Popen:
        if not isinstance(handle, subprocess.Popen):
            raise DispatchError(
                f"foreign job handle {handle!r}; not launched by this backend"
            )
        return handle

    def _release_log(self, proc: subprocess.Popen) -> None:
        log = self._logs.pop(proc.pid, None)
        if log is not None:
            log.close()
