"""The persistent worker daemon and its dispatch backend.

Protocol unit tests run an in-process :class:`WorkerDaemon` (served on
a background thread; submitted jobs really fork).  Failure-mode tests
cover the satellite checklist: a daemon killed mid-shard surfaces as a
failed handle (heartbeat loss) and the orchestrator's retry healing
recovers; two orchestrators cannot share one daemon socket; elastic
sub-shard artifacts merge bit-identically (the hypothesis-driven case
lives in ``tests/test_engine_conformance.py``).

Daemon sockets live in a short ``/tmp`` directory, not ``tmp_path`` —
pytest's per-test paths can exceed the ~107-byte ``AF_UNIX`` limit.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.engine.backends import (
    DAEMON_LOST_EXIT,
    DaemonBackend,
    make_backend,
)
from repro.engine.daemon import (
    DaemonClient,
    WorkerDaemon,
    ping,
    repro_argv_tail,
    wait_for_daemon,
)
from repro.exceptions import DispatchError


@pytest.fixture
def sock_dir():
    with tempfile.TemporaryDirectory(prefix="reprod-", dir="/tmp") as tmp:
        yield Path(tmp)


def _daemon(sock_dir, name="w.sock", capacity=1):
    daemon = WorkerDaemon(sock_dir / name, capacity=capacity)
    daemon.serve_in_thread()
    return daemon


def _wait_state(client, job_id, state="exited", timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        response = client.request({"op": "status", "job_id": job_id})
        if response.get("state") == state:
            return response
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached state {state!r}")


class TestProtocol:
    def test_ping_without_attach(self, sock_dir):
        daemon = _daemon(sock_dir)
        try:
            response = ping(daemon.socket_path)
            assert response["ok"]
            assert response["capacity"] == 1
            assert response["running"] == 0
        finally:
            daemon.stop()

    def test_submit_runs_in_forked_child(self, sock_dir):
        daemon = _daemon(sock_dir)
        client = DaemonClient(daemon.socket_path)
        try:
            client.connect_and_attach()
            log = sock_dir / "job.log"
            response = client.request({
                "op": "submit", "job_id": "j1",
                "argv": [sys.executable, "-c", "print('forked hello')"],
                "log": str(log),
            })
            assert response["ok"]
            status = _wait_state(client, "j1")
            assert status["code"] == 0
            assert "forked hello" in log.read_text()
        finally:
            client.close()
            daemon.stop()

    def test_nonzero_exit_code_reported(self, sock_dir):
        daemon = _daemon(sock_dir)
        client = DaemonClient(daemon.socket_path)
        try:
            client.connect_and_attach()
            client.request({
                "op": "submit", "job_id": "j1",
                "argv": [sys.executable, "-c", "import sys; sys.exit(5)"],
                "log": str(sock_dir / "job.log"),
            })
            assert _wait_state(client, "j1")["code"] == 5
        finally:
            client.close()
            daemon.stop()

    def test_kill_reports_signal_exit(self, sock_dir):
        daemon = _daemon(sock_dir)
        client = DaemonClient(daemon.socket_path)
        try:
            client.connect_and_attach()
            client.request({
                "op": "submit", "job_id": "j1",
                "argv": [sys.executable, "-c", "import time; time.sleep(600)"],
                "log": str(sock_dir / "job.log"),
            })
            assert client.request({"op": "status", "job_id": "j1"})["state"] == "running"
            assert client.request({"op": "kill", "job_id": "j1"})["ok"]
            assert _wait_state(client, "j1")["code"] == -signal.SIGKILL
        finally:
            client.close()
            daemon.stop()

    def test_capacity_enforced(self, sock_dir):
        daemon = _daemon(sock_dir, capacity=1)
        client = DaemonClient(daemon.socket_path)
        try:
            client.connect_and_attach()
            client.request({
                "op": "submit", "job_id": "j1",
                "argv": [sys.executable, "-c", "import time; time.sleep(600)"],
                "log": str(sock_dir / "a.log"),
            })
            refused = client.request({
                "op": "submit", "job_id": "j2",
                "argv": [sys.executable, "-c", "print('no')"],
                "log": str(sock_dir / "b.log"),
            })
            assert not refused["ok"]
            assert "capacity" in refused["error"]
            client.request({"op": "kill", "job_id": "j1"})
        finally:
            client.close()
            daemon.stop()

    def test_duplicate_job_id_refused(self, sock_dir):
        daemon = _daemon(sock_dir, capacity=2)
        client = DaemonClient(daemon.socket_path)
        try:
            client.connect_and_attach()
            argv = [sys.executable, "-c", "print('x')"]
            assert client.request({
                "op": "submit", "job_id": "dup", "argv": argv,
                "log": str(sock_dir / "a.log"),
            })["ok"]
            again = client.request({
                "op": "submit", "job_id": "dup", "argv": argv,
                "log": str(sock_dir / "b.log"),
            })
            assert not again["ok"] and "duplicate" in again["error"]
        finally:
            client.close()
            daemon.stop()

    def test_ops_require_attach(self, sock_dir):
        daemon = _daemon(sock_dir)
        client = DaemonClient(daemon.socket_path)
        try:
            sock = __import__("socket").socket(
                __import__("socket").AF_UNIX, __import__("socket").SOCK_STREAM
            )
            sock.connect(str(daemon.socket_path))
            from repro.engine.daemon import recv_message, send_message

            send_message(sock, {"op": "status", "job_id": "j1"})
            response = recv_message(sock)
            assert not response["ok"]
            assert "attach" in response["error"]
            sock.close()
        finally:
            client.close()
            daemon.stop()

    def test_second_controller_refused(self, sock_dir):
        # The two-orchestrators-one-socket satellite, protocol level.
        daemon = _daemon(sock_dir)
        first = DaemonClient(daemon.socket_path)
        second = DaemonClient(daemon.socket_path)
        try:
            first.connect_and_attach()
            with pytest.raises(DispatchError, match="already has a controller"):
                second.connect_and_attach()
        finally:
            first.close()
            second.close()
            daemon.stop()

    def test_controller_slot_frees_on_detach(self, sock_dir):
        daemon = _daemon(sock_dir)
        first = DaemonClient(daemon.socket_path)
        first.connect_and_attach()
        first.close()
        second = DaemonClient(daemon.socket_path)
        try:
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    second.connect_and_attach()
                    break
                except DispatchError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.02)
        finally:
            second.close()
            daemon.stop()

    def test_detach_kills_running_jobs(self, sock_dir):
        daemon = _daemon(sock_dir)
        client = DaemonClient(daemon.socket_path)
        client.connect_and_attach()
        response = client.request({
            "op": "submit", "job_id": "j1",
            "argv": [sys.executable, "-c", "import time; time.sleep(600)"],
            "log": str(sock_dir / "a.log"),
        })
        child = response["pid"]
        client.close()
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.kill(child, 0)
                except ProcessLookupError:
                    break  # child reaped: detach killed it
                time.sleep(0.02)
            else:
                raise AssertionError("orphan shard survived its controller")
        finally:
            daemon.stop()

    def test_stale_socket_file_is_replaced(self, sock_dir):
        path = sock_dir / "stale.sock"
        path.touch()  # a dead daemon's leftover
        daemon = WorkerDaemon(path)
        daemon.serve_in_thread()
        try:
            assert ping(path)["ok"]
        finally:
            daemon.stop()

    def test_live_socket_is_not_hijacked(self, sock_dir):
        daemon = _daemon(sock_dir, name="one.sock")
        try:
            with pytest.raises(DispatchError, match="already listens"):
                WorkerDaemon(daemon.socket_path).serve_forever()
        finally:
            daemon.stop()

    def test_repro_argv_tail(self):
        assert repro_argv_tail(
            ["/usr/bin/python3", "-m", "repro", "figure2", "--m", "2"]
        ) == ["figure2", "--m", "2"]
        assert repro_argv_tail(["sleep", "60"]) is None
        assert repro_argv_tail([sys.executable, "-c", "pass"]) is None

    def test_daemon_rejects_overlong_socket_path(self):
        with pytest.raises(DispatchError, match="too long for AF_UNIX"):
            WorkerDaemon(Path("/tmp") / ("x" * 200 + ".sock"))

    def test_client_rejects_overlong_socket_path(self):
        # Satellite regression: the client used to defer to connect(),
        # which surfaces a raw OSError from deep inside the backend
        # instead of the actionable DispatchError the daemon side gives.
        from repro.engine.daemon import DaemonClient

        with pytest.raises(DispatchError, match="too long for AF_UNIX"):
            DaemonClient(Path("/tmp") / ("x" * 200 + ".sock"))


class TestDaemonBackend:
    def test_launch_poll_and_log(self, sock_dir):
        daemon = _daemon(sock_dir)
        try:
            log = sock_dir / "job.log"
            with DaemonBackend([daemon.socket_path]) as backend:
                assert backend.slots == 1
                handle = backend.launch(
                    [sys.executable, "-c", "print('via daemon')"], log
                )
                deadline = time.monotonic() + 30.0
                while backend.poll(handle) is None:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                assert backend.poll(handle) == 0
            assert "via daemon" in log.read_text()
        finally:
            daemon.stop()

    def test_slots_sum_capacities(self, sock_dir):
        daemons = [
            _daemon(sock_dir, name=f"w{i}.sock", capacity=2) for i in range(2)
        ]
        try:
            with DaemonBackend([d.socket_path for d in daemons]) as backend:
                assert backend.slots == 4
        finally:
            for daemon in daemons:
                daemon.stop()

    def test_capacity_limit_caps_packing(self, sock_dir):
        # Satellite (--daemon-capacity): the backend may hold back
        # slots below what daemons declare.
        daemon = _daemon(sock_dir, capacity=3)
        try:
            with DaemonBackend(
                [daemon.socket_path], capacity_limit=1
            ) as backend:
                assert backend.slots == 1
                handle = backend.launch(
                    [sys.executable, "-c", "import time; time.sleep(600)"],
                    sock_dir / "a.log",
                )
                # The daemon would accept more; the backend must not.
                with pytest.raises(DispatchError, match="no live daemon"):
                    backend.launch(
                        [sys.executable, "-c", "print()"], sock_dir / "b.log"
                    )
                backend.cancel(handle)
            with pytest.raises(DispatchError):
                DaemonBackend([daemon.socket_path], capacity_limit=0)
            # The daemon releases the previous controller's claim
            # asynchronously on disconnect; retry the re-attach briefly.
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    made = make_backend(
                        "daemon", sockets=[daemon.socket_path],
                        daemon_capacity=2,
                    )
                    break
                except DispatchError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.02)
            assert isinstance(made, DaemonBackend)
            assert made.slots == 2
            made.close()
            with pytest.raises(DispatchError):
                make_backend("local", daemon_capacity=2)
        finally:
            daemon.stop()

    def test_capacity_two_daemon_packs_two_shards(self, sock_dir):
        # Satellite, end to end: one capacity-2 daemon hosts a whole
        # 2-shard orchestration — both shard jobs packed concurrently
        # onto the one socket — and the merged result is bit-identical.
        import dataclasses

        from repro.engine.orchestrator import Orchestrator, plan_from_jobspec
        from repro.engine.session import run_job
        from repro.experiments.figure2 import figure2_job

        kwargs = dict(m=2, n_tasksets=6, seed=11, step=0.5)
        daemon = _daemon(sock_dir, capacity=2)

        class PackingProbe(DaemonBackend):
            """Records how many jobs were in flight per daemon at once."""

            peak = 0

            def launch(self, argv, log_path, env=None):
                handle = super().launch(argv, log_path, env=env)
                in_flight = max(
                    len(active) for active in self._active.values()
                )
                PackingProbe.peak = max(PackingProbe.peak, in_flight)
                return handle

        try:
            plan = plan_from_jobspec(figure2_job(**kwargs))
            with PackingProbe([daemon.socket_path]) as backend:
                assert backend.slots == 2
                outcome = Orchestrator(
                    plan, sock_dir / "orch", backend=backend,
                    poll_interval=0.05,
                ).run()
            # Default partition: one shard per slot = 2 shards, both
            # packed concurrently onto the one daemon socket.
            assert len(outcome.attempts) == 2
            assert PackingProbe.peak == 2
            reference = run_job(figure2_job(**kwargs))
            strip = lambda r: dataclasses.replace(r, elapsed_seconds=0.0)  # noqa: E731
            assert strip(outcome.result) == strip(reference)
        finally:
            daemon.stop()

    def test_cancel(self, sock_dir):
        daemon = _daemon(sock_dir)
        try:
            with DaemonBackend([daemon.socket_path]) as backend:
                handle = backend.launch(
                    [sys.executable, "-c", "import time; time.sleep(600)"],
                    sock_dir / "job.log",
                )
                assert backend.poll(handle) is None
                backend.cancel(handle)
                assert backend.poll(handle) is not None
        finally:
            daemon.stop()

    def test_foreign_handle_rejected(self, sock_dir):
        daemon = _daemon(sock_dir)
        try:
            with DaemonBackend([daemon.socket_path]) as backend:
                with pytest.raises(DispatchError):
                    backend.poll("nope")
        finally:
            daemon.stop()

    def test_daemon_death_is_heartbeat_loss(self, sock_dir):
        # Satellite: daemon killed mid-shard -> failed handle, slots
        # shrink, and a fresh launch fails over to the survivor.
        daemons = [_daemon(sock_dir, name=f"w{i}.sock") for i in range(2)]
        try:
            with DaemonBackend([d.socket_path for d in daemons]) as backend:
                handle = backend.launch(
                    [sys.executable, "-c", "import time; time.sleep(600)"],
                    sock_dir / "a.log",
                )
                assert backend.poll(handle) is None
                daemons[0].stop()  # SIGKILL-equivalent: socket goes dead
                deadline = time.monotonic() + 30.0
                while backend.poll(handle) is None:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                assert backend.poll(handle) == DAEMON_LOST_EXIT
                assert backend.slots == 1
                retry = backend.launch(
                    [sys.executable, "-c", "print('survivor')"],
                    sock_dir / "b.log",
                )
                while backend.poll(retry) is None:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                assert backend.poll(retry) == 0
        finally:
            for daemon in daemons:
                daemon.stop()

    def test_all_daemons_dead_launch_raises(self, sock_dir):
        daemon = _daemon(sock_dir)
        try:
            with DaemonBackend([daemon.socket_path]) as backend:
                daemon.stop()
                handle = backend.launch(
                    [sys.executable, "-c", "print('x')"], sock_dir / "a.log"
                )
                # The submit may have raced the shutdown; either the
                # launch already failed over to nothing (DispatchError)
                # or the handle reports the lost daemon.
                deadline = time.monotonic() + 30.0
                while backend.poll(handle) is None:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                with pytest.raises(DispatchError, match="no live daemon"):
                    backend.launch(
                        [sys.executable, "-c", "print('x')"],
                        sock_dir / "b.log",
                    )
        except DispatchError:
            pass  # the first launch itself may already see the death
        finally:
            daemon.stop()

    def test_backend_needs_a_live_daemon(self, sock_dir):
        with pytest.raises(DispatchError, match="no daemon listening"):
            DaemonBackend([sock_dir / "absent.sock"])

    def test_two_backends_refuse_one_socket(self, sock_dir):
        # Satellite: two orchestrators must not share a daemon.
        daemon = _daemon(sock_dir)
        try:
            with DaemonBackend([daemon.socket_path]):
                with pytest.raises(DispatchError, match="already has a controller"):
                    DaemonBackend([daemon.socket_path])
        finally:
            daemon.stop()

    def test_make_backend_daemon_kind(self, sock_dir):
        daemon = _daemon(sock_dir)
        try:
            backend = make_backend("daemon", sockets=[daemon.socket_path])
            assert isinstance(backend, DaemonBackend)
            backend.close()
            with pytest.raises(DispatchError):
                make_backend("daemon")  # no sockets
            with pytest.raises(DispatchError):
                make_backend("local", sockets=[daemon.socket_path])
            with pytest.raises(DispatchError):
                make_backend(
                    "daemon",
                    sockets=[daemon.socket_path],
                    template=["sh", "-c", "{command}"],
                )
        finally:
            daemon.stop()


def test_preload_imports_everything_shard_runs_need():
    """A forked shard must find every module it uses already imported."""
    code = (
        "import contextlib, io, sys\n"
        "from repro.engine.daemon import preload\n"
        "preload()\n"
        "before = set(sys.modules)\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['figure2', '--m', '2', '--tasksets', '1', '--step', '4.0'])\n"
        "    for kind in ('group2', 'splitsweep'):\n"
        "        main(['sweep-run', '--job', f'examples/jobs/{kind}-small.json'])\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestDaemonProcess:
    """The real thing: a sweep-daemon subprocess, killed with SIGKILL."""

    def _spawn(self, socket_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep-daemon",
             "--socket", str(socket_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
        )
        wait_for_daemon(socket_path, timeout=60.0)
        return proc

    def test_daemon_process_runs_repro_work_orders(self, sock_dir):
        proc = self._spawn(sock_dir / "d.sock")
        try:
            log = sock_dir / "job.log"
            with DaemonBackend([sock_dir / "d.sock"]) as backend:
                handle = backend.launch(
                    [sys.executable, "-m", "repro", "figure1"], log
                )
                deadline = time.monotonic() + 60.0
                while backend.poll(handle) is None:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                assert backend.poll(handle) == 0
            assert "Table I" in log.read_text()
        finally:
            proc.kill()
            proc.wait()

    def test_sweep_run_job_via_daemon_elastic_matches_legacy(self, sock_dir):
        # Acceptance: a declarative job executed as `sweep-run --job
        # ... --backend daemon --elastic` reproduces the legacy
        # subcommand's CSV byte-for-byte.
        import json

        from repro.cli import main

        job_file = sock_dir / "job.json"
        job_file.write_text(json.dumps({
            "version": 1,
            "workload": {"kind": "figure2", "m": 2, "n_tasksets": 6,
                         "seed": 11, "step": 0.5},
        }))
        daemons = [
            _daemon(sock_dir, name=f"w{i}.sock", capacity=1) for i in range(2)
        ]
        try:
            legacy_csv = sock_dir / "legacy.csv"
            assert main([
                "figure2", "--m", "2", "--tasksets", "6", "--seed", "11",
                "--step", "0.5", "--csv", str(legacy_csv),
            ]) == 0
            job_csv = sock_dir / "job.csv"
            assert main([
                "sweep-run", "--job", str(job_file),
                "--backend", "daemon",
                "--daemon-socket", str(daemons[0].socket_path),
                "--daemon-socket", str(daemons[1].socket_path),
                "--elastic", "--out", str(sock_dir / "orch"),
                "--csv", str(job_csv), "--quiet",
            ]) == 0
            assert job_csv.read_bytes() == legacy_csv.read_bytes()
        finally:
            for daemon in daemons:
                daemon.stop()

    def test_sigkilled_daemon_mid_shard_heals_via_orchestrator(self, sock_dir):
        # Satellite, end to end: SIGKILL a daemon process while its
        # shard runs; the orchestrator sees the heartbeat loss, retries
        # on a surviving daemon, and the result is still bit-identical.
        import dataclasses

        from repro.engine.orchestrator import Orchestrator, plan_from_jobspec
        from repro.engine.session import run_job
        from repro.experiments.figure2 import figure2_job

        kwargs = dict(m=2, n_tasksets=6, seed=11, step=0.5)
        procs = [self._spawn(sock_dir / f"d{i}.sock") for i in range(2)]
        victim = procs[0]
        try:
            plan = plan_from_jobspec(figure2_job(**kwargs))
            sockets = [sock_dir / f"d{i}.sock" for i in range(2)]

            killed = {"done": False}

            def progress(view):
                # Kill the first daemon once any stream shows life.
                if not killed["done"] and any(
                    s.state != "waiting" for s in view.shards
                ):
                    victim.kill()
                    killed["done"] = True

            with DaemonBackend(sockets) as backend:
                outcome = Orchestrator(
                    plan, sock_dir / "orch", backend=backend, retries=3,
                    poll_interval=0.05, progress=progress,
                ).run()
            assert killed["done"]
            strip = lambda r: dataclasses.replace(r, elapsed_seconds=0.0)  # noqa: E731
            assert strip(outcome.result) == strip(run_job(figure2_job(**kwargs)))
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
