"""Persistent worker daemons: shard dispatch without interpreter spawns.

Every shard launch on a :class:`~repro.engine.backends.LocalBackend`
pays a full Python interpreter start plus the numpy/repro import bill —
hundreds of milliseconds that dominate small shards and add up over
retries and elastic re-partitions.  A :class:`WorkerDaemon` pays that
bill **once**: it imports the repro stack at startup, listens on a
local (``AF_UNIX``) socket, and runs each submitted shard work order in
a forked child — the fork inherits the warm interpreter, so a shard
starts in milliseconds and still gets full process isolation (its own
crash, its own kill, its own exit code).

Protocol
--------
Messages are length-prefixed JSON: a 4-byte big-endian payload length,
then the UTF-8 JSON object (:func:`send_message` / :func:`recv_message`).
Requests carry an ``op``; every response carries ``ok`` and, on
failure, ``error``:

* ``attach`` — claim the daemon.  Exactly one controller (one
  orchestrator's :class:`~repro.engine.backends.DaemonBackend`) may be
  attached at a time; a second attach is refused, which is what keeps
  two orchestrators from interleaving work orders on one socket.
* ``submit {job_id, argv, log, env?}`` — run a shard work order (the
  exact ``python -m repro ... --shard I/N --shard-out ... --stream ...``
  command the subprocess path would spawn).  Commands of the form
  ``<python> -m repro <args...>`` run in the forked child by calling
  :func:`repro.cli.main` directly on the warm imports; anything else is
  ``exec``-ed, so the daemon degrades to a plain process spawner for
  foreign commands.  stdout/stderr append to ``log``; ``env`` (when
  given) replaces the child environment, exactly like backend
  ``launch``.
* ``status {job_id}`` — ``{"state": "running"}`` or
  ``{"state": "exited", "code": N}`` (negative = killed by signal,
  matching ``subprocess.Popen`` semantics).  Every status round-trip
  doubles as a heartbeat: a daemon that dies surfaces as a socket
  error, which the backend maps to a failed handle so the
  orchestrator's existing retry/stall healing takes over.
* ``kill {job_id}`` — SIGKILL the child (idempotent).
* ``ping`` — liveness probe, allowed without attaching.
* ``shutdown`` — stop serving and exit (controller only).

Detaching (closing the connection) kills the controller's running
jobs: a dead orchestrator must not leave orphan shards racing the
relaunched ones.

Caveats: forking from a threaded server is safe here only because the
child touches no daemon locks — it closes inherited sockets first
(so a daemon's death still reads as EOF to its client even while
children run) and everything :func:`repro.cli.main` needs is imported
by :func:`preload` before serving, keeping the import lock quiet at
fork time.  A SIGKILLed daemon cannot kill its children; they finish
writing their (deterministic, atomically-renamed) artifacts and exit,
which is harmless to a healed orchestration.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import socket
import struct
import sys
import threading
import time
import traceback
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.exceptions import DispatchError

#: Length prefix of every protocol message: 4-byte big-endian size.
_LENGTH = struct.Struct(">I")

#: Refuse absurd payloads instead of allocating unbounded buffers.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024


def send_message(sock: socket.socket, payload: dict) -> None:
    """Write one length-prefixed JSON message."""
    data = json.dumps(payload).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(data)) + data)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one length-prefixed JSON message; ``None`` on a clean EOF.

    Raises
    ------
    DispatchError
        On a torn frame, an oversized length prefix, or a payload that
        is not a JSON object.
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise DispatchError(
            f"daemon message of {length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte protocol limit"
        )
    data = _recv_exact(sock, length)
    if data is None:
        raise DispatchError("daemon connection closed mid-message")
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DispatchError(f"daemon sent unparseable JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DispatchError("daemon message is not a JSON object")
    return payload


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None  # EOF (clean between frames, torn within one)
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def repro_argv_tail(argv: Sequence[str]) -> list[str] | None:
    """The sub-command arguments of a ``<python> -m repro ...`` argv.

    ``None`` when the command is not a repro module invocation (the
    daemon then falls back to ``exec``).
    """
    argv = [str(part) for part in argv]
    for index in range(len(argv) - 1):
        if argv[index] == "-m" and argv[index + 1] == "repro":
            return argv[index + 2 :]
    return None


def preload() -> None:
    """Import everything a shard work order will need.

    Called once at daemon startup so forked children find every module
    already in ``sys.modules`` — both for speed (the whole point of the
    daemon) and for fork safety (no import-lock contention at fork
    time).
    """
    import numpy  # noqa: F401
    import numpy.random  # noqa: F401  (numpy defers it to first use)

    import repro.cli  # noqa: F401
    import repro.engine  # noqa: F401
    import repro.experiments.figure2  # noqa: F401
    import repro.experiments.group2  # noqa: F401
    import repro.experiments.reporting  # noqa: F401
    import repro.experiments.sensitivity  # noqa: F401
    import repro.experiments.simulate  # noqa: F401
    import repro.experiments.splitsweep  # noqa: F401
    import repro.experiments.timing  # noqa: F401


def _check_socket_path(socket_path: str | Path) -> None:
    """Reject an ``AF_UNIX`` path the kernel would truncate or refuse.

    ``sun_path`` tops out around 107 bytes on Linux (less elsewhere);
    past it, ``bind``/``connect`` surface a raw ``OSError`` long after
    the path was chosen.  Checked on both ends — daemon *and* client —
    so the mistake is caught where the path is configured.
    """
    if len(str(socket_path).encode()) >= 100:
        raise DispatchError(
            f"socket path {str(socket_path)!r} is too long for AF_UNIX "
            "(~107 bytes); use a shorter path, e.g. under /tmp"
        )


class WorkerDaemon:
    """Serve shard work orders from one ``AF_UNIX`` socket.

    Parameters
    ----------
    socket_path:
        Where to listen.  A stale socket file left by a dead daemon is
        replaced; a *live* daemon on the path makes startup fail with
        :class:`~repro.exceptions.DispatchError` instead of silently
        hijacking its queue.
    capacity:
        Concurrent forked shard children this daemon will host (the
        backend counts one slot per unit of capacity).
    """

    def __init__(self, socket_path: str | Path, capacity: int = 1) -> None:
        if capacity < 1:
            raise DispatchError(f"daemon capacity must be >= 1, got {capacity}")
        _check_socket_path(socket_path)
        self.socket_path = Path(socket_path)
        self.capacity = capacity
        self._listener: socket.socket | None = None
        self._shutdown = threading.Event()
        self._lock = threading.Lock()
        self._controller: object | None = None
        self._conns: set[socket.socket] = set()
        #: job id -> child pid, for jobs not yet reaped.
        self._running: dict[str, int] = {}
        #: job id -> exit code, after reaping.
        self._exited: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Serving
    def serve_forever(self, ready: threading.Event | None = None) -> None:
        """Bind, then serve until :meth:`stop` (or ``shutdown`` op)."""
        preload()
        self._listener = self._bind()
        if ready is not None:
            ready.set()
        try:
            while not self._shutdown.is_set():
                try:
                    conn, _ = self._listener.accept()
                except OSError:
                    break  # listener closed by stop()
                with self._lock:
                    self._conns.add(conn)
                thread = threading.Thread(
                    target=self._serve_client, args=(conn,), daemon=True
                )
                thread.start()
        finally:
            self._cleanup()

    def serve_in_thread(self) -> threading.Thread:
        """Start serving on a background thread; returns once bound.

        A bind failure (live daemon on the path, unwritable directory)
        is re-raised here immediately instead of timing out.
        """
        ready = threading.Event()
        failure: list[BaseException] = []

        def serve() -> None:
            try:
                self.serve_forever(ready)
            # Thread boundary: the exception is relayed verbatim to the
            # starting thread (raised from the wait loop below), so
            # nothing is swallowed.
            # repro-lint: disable=ERR002
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failure.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while not ready.wait(timeout=0.05):
            if failure:
                raise failure[0]
            if not thread.is_alive():
                raise DispatchError(
                    f"daemon on {self.socket_path} died before listening"
                )
            if time.monotonic() > deadline:
                raise DispatchError(
                    f"daemon on {self.socket_path} failed to start listening"
                )
        return thread

    def stop(self) -> None:
        """Stop serving, kill running children, remove the socket file."""
        self._shutdown.set()
        listener = self._listener
        if listener is not None:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() does (accept then fails with EINVAL).
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - already closed
                pass
            try:
                listener.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _bind(self) -> socket.socket:
        path = str(self.socket_path)
        if self.socket_path.exists():
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.settimeout(1.0)
                probe.connect(path)
            except OSError:
                # Nobody answering: a stale file from a dead daemon.
                self.socket_path.unlink(missing_ok=True)
            else:
                probe.close()
                raise DispatchError(
                    f"a live daemon already listens on {path}; "
                    "refusing to replace it"
                )
            finally:
                probe.close()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(path)
        except OSError as exc:
            listener.close()
            raise DispatchError(f"cannot bind daemon socket {path}: {exc}") from exc
        listener.listen(16)
        return listener

    def _cleanup(self) -> None:
        with self._lock:
            running = dict(self._running)
            conns = list(self._conns)
        for job_id in running:
            self._kill_job(job_id)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - racing close
                pass
        self.socket_path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Per-connection handling
    def _serve_client(self, conn: socket.socket) -> None:
        token = object()
        submitted: set[str] = set()
        try:
            while not self._shutdown.is_set():
                try:
                    request = recv_message(conn)
                except (DispatchError, OSError):
                    break
                if request is None:
                    break
                response = self._handle(request, token, submitted)
                try:
                    send_message(conn, response)
                except OSError:
                    break
                if request.get("op") == "shutdown" and response.get("ok"):
                    self.stop()
                    break
        finally:
            with self._lock:
                self._conns.discard(conn)
                was_controller = self._controller is token
                if was_controller:
                    self._controller = None
            if was_controller:
                # A vanished controller must not leave orphan shards
                # racing whatever it relaunches elsewhere — and its job
                # ids must not haunt the next controller's submits.
                for job_id in list(submitted):
                    self._kill_job(job_id)
                with self._lock:
                    for job_id in submitted:
                        self._exited.pop(job_id, None)
            try:
                conn.close()
            except OSError:  # pragma: no cover - racing close
                pass

    def _handle(self, request: dict, token: object, submitted: set[str]) -> dict:
        op = request.get("op")
        if op == "ping":
            with self._lock:
                self._reap_locked()
                running = len(self._running)
            return {
                "ok": True,
                "pid": os.getpid(),
                "capacity": self.capacity,
                "running": running,
            }
        if op == "attach":
            with self._lock:
                if self._controller is not None and self._controller is not token:
                    return {
                        "ok": False,
                        "error": (
                            f"daemon on {self.socket_path} already has a "
                            "controller attached; one orchestrator per "
                            "daemon socket"
                        ),
                    }
                self._controller = token
            return {"ok": True, "capacity": self.capacity, "pid": os.getpid()}
        with self._lock:
            attached = self._controller is token
        if not attached:
            return {"ok": False, "error": f"attach before {op!r}"}
        if op == "submit":
            return self._submit(request, submitted)
        if op == "status":
            return self._status(request)
        if op == "kill":
            job_id = str(request.get("job_id"))
            self._kill_job(job_id)
            return {"ok": True}
        if op == "shutdown":
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # ------------------------------------------------------------------
    # Job management
    def _submit(self, request: dict, submitted: set[str]) -> dict:
        job_id = str(request.get("job_id") or "")
        argv = request.get("argv")
        log = request.get("log")
        env = request.get("env")
        if not job_id or not isinstance(argv, list) or not argv or not log:
            return {"ok": False, "error": "submit needs job_id, argv and log"}
        with self._lock:
            self._reap_locked()
            if job_id in self._running or job_id in self._exited:
                return {"ok": False, "error": f"duplicate job id {job_id!r}"}
            if len(self._running) >= self.capacity:
                return {
                    "ok": False,
                    "error": (
                        f"daemon at capacity ({self.capacity} running); "
                        "wait for a job to finish"
                    ),
                }
            pid = os.fork()
            if pid == 0:
                self._run_child(argv, log, env)  # never returns
            self._running[job_id] = pid
            submitted.add(job_id)
        return {"ok": True, "job_id": job_id, "pid": pid}

    def _run_child(self, argv: list, log: str, env: dict | None) -> None:
        """Forked-child half of a submit.  Exits the process, always."""
        code = 97
        try:
            # Inherited daemon sockets must die with this child's
            # creation, not its exit: a SIGKILLed daemon's clients need
            # their EOF even while shards keep running.
            listener = self._listener
            if listener is not None:
                listener.close()
            for conn in list(self._conns):
                try:
                    conn.close()
                except OSError:
                    pass
            log_fd = os.open(
                str(log), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            os.dup2(log_fd, 1)
            os.dup2(log_fd, 2)
            if log_fd > 2:
                os.close(log_fd)
            if env is not None:
                os.environ.clear()
                os.environ.update({str(k): str(v) for k, v in env.items()})
            tail = repro_argv_tail(argv)
            if tail is None:
                os.execvp(str(argv[0]), [str(part) for part in argv])
            import repro.cli

            code = int(repro.cli.main(tail) or 0)
        except SystemExit as exc:  # argparse and friends
            code = int(exc.code or 0) if not isinstance(exc.code, str) else 2
        # Forked-worker process boundary: every failure must become a
        # printed traceback + nonzero exit code (the orchestrator's
        # retry healing consumes the code); letting anything propagate
        # past os._exit would be lost.
        # repro-lint: disable=ERR002
        except BaseException:
            traceback.print_exc()
            code = 97
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)

    def _status(self, request: dict) -> dict:
        job_id = str(request.get("job_id"))
        with self._lock:
            self._reap_locked()
            if job_id in self._running:
                return {"ok": True, "state": "running"}
            if job_id in self._exited:
                return {"ok": True, "state": "exited", "code": self._exited[job_id]}
        return {"ok": False, "error": f"unknown job {job_id!r}"}

    def _reap_locked(self) -> None:
        """Collect exit codes of finished children (caller holds lock)."""
        for job_id, pid in list(self._running.items()):
            try:
                done_pid, status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done_pid, status = pid, 0  # reaped elsewhere; assume clean
            if done_pid == 0:
                continue
            del self._running[job_id]
            self._exited[job_id] = os.waitstatus_to_exitcode(status)

    def _kill_job(self, job_id: str) -> None:
        with self._lock:
            pid = self._running.get(job_id)
        if pid is None:
            return
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with self._lock:
                self._reap_locked()
                if job_id not in self._running:
                    return
            time.sleep(0.01)


def run_daemon(socket_path: str | Path, capacity: int = 1) -> int:
    """Blocking entry point behind ``python -m repro sweep-daemon``.

    Serves until SIGTERM/SIGINT, then kills running children and
    removes the socket file.  Returns a process exit code.
    """
    daemon = WorkerDaemon(socket_path, capacity=capacity)

    def _terminate(signum, frame):  # pragma: no cover - signal path
        daemon.stop()

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        try:
            thread = daemon.serve_in_thread()
        except DispatchError as exc:
            print(f"sweep-daemon: {exc}", file=sys.stderr)
            return 1
        print(
            f"sweep-daemon: serving on {socket_path} "
            f"(capacity {capacity}, pid {os.getpid()})",
            flush=True,
        )
        try:
            while thread.is_alive():
                thread.join(timeout=0.5)
        except KeyboardInterrupt:
            daemon.stop()
            thread.join(timeout=10.0)
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous)


class DaemonClient:
    """One backend-side connection to one daemon (request/response).

    Not thread-safe: the orchestrator drives its backend from a single
    thread, and each client owns exactly one socket.
    """

    def __init__(
        self, socket_path: str | Path, request_timeout: float = 30.0
    ) -> None:
        _check_socket_path(socket_path)
        self.socket_path = Path(socket_path)
        self.request_timeout = request_timeout
        self.capacity = 1
        self.alive = False
        self._sock: socket.socket | None = None

    def connect_and_attach(self) -> None:
        """Connect and claim the daemon; raises if it is taken or dead.

        Raises
        ------
        DispatchError
            When nothing listens on the socket, or another controller
            is already attached (two orchestrators must not share one
            daemon).
        """
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.request_timeout)
        try:
            sock.connect(str(self.socket_path))
        except OSError as exc:
            sock.close()
            raise DispatchError(
                f"no daemon listening on {self.socket_path} ({exc}); "
                "start one with: python -m repro sweep-daemon --socket "
                f"{self.socket_path}"
            ) from exc
        self._sock = sock
        response = self.request({"op": "attach"})
        if not response.get("ok"):
            error = response.get("error", "attach refused")
            self.close()
            raise DispatchError(str(error))
        self.capacity = int(response.get("capacity", 1))
        self.alive = True

    def request(self, payload: dict) -> dict:
        """One request/response round-trip (also the heartbeat).

        Raises
        ------
        DispatchError
            On any socket failure or EOF — the daemon is gone; the
            caller marks this client dead.
        """
        if self._sock is None:
            raise DispatchError(f"daemon {self.socket_path} is not connected")
        try:
            send_message(self._sock, payload)
            response = recv_message(self._sock)
        except OSError as exc:
            raise DispatchError(
                f"daemon on {self.socket_path} is unreachable ({exc})"
            ) from exc
        if response is None:
            raise DispatchError(
                f"daemon on {self.socket_path} closed the connection "
                "(killed?)"
            )
        return response

    def mark_dead(self) -> None:
        self.alive = False
        self.close()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - racing close
                pass
            self._sock = None


def ping(socket_path: str | Path, timeout: float = 5.0) -> dict | None:
    """Probe a daemon socket; the ping response dict, or ``None``."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(str(socket_path))
        send_message(sock, {"op": "ping"})
        return recv_message(sock)
    except OSError:
        return None
    finally:
        sock.close()


def wait_for_daemon(socket_path: str | Path, timeout: float = 30.0) -> dict:
    """Block until a daemon answers pings on ``socket_path``.

    Raises :class:`~repro.exceptions.DispatchError` on timeout — used
    by tests and scripts that just started a daemon process.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        response = ping(socket_path, timeout=1.0)
        if response is not None and response.get("ok"):
            return response
        time.sleep(0.05)
    raise DispatchError(
        f"no daemon answered on {socket_path} within {timeout:.0f}s"
    )
