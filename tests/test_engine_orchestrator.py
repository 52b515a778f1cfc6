"""Dispatch backends and the orchestrator tier.

Unit tests for backends and plans, plus integration tests that really
dispatch ``python -m repro`` shard subprocesses (kept tiny: m=2, a
handful of task-sets).  The orchestrator's bit-identical contract with
the serial run lives in ``tests/test_engine_conformance.py``.
"""

import json
import sys
import time

import pytest

from repro.engine.backends import (
    LocalBackend,
    TemplateBackend,
    make_backend,
)
from repro.engine.checkpoint import FORMAT_VERSION
from repro.engine.jobspec import ExecutionPolicy
from repro.engine.orchestrator import (
    MANIFEST_NAME,
    Orchestrator,
    load_manifest,
    plan_from_jobspec,
    read_status,
)
from repro.engine.session import run_job
from repro.exceptions import DispatchError, OrchestrationError
from repro.experiments.figure2 import figure2_job, figure2_spec
from repro.experiments.group2 import group2_job, group2_spec
from repro.experiments.splitsweep import splitsweep_job


def _figure2_plan(**kwargs):
    """The orchestration plan of a figure2 job; ``jobs`` goes to its
    execution policy."""
    execution = {key: kwargs.pop(key) for key in ("jobs",) if key in kwargs}
    return plan_from_jobspec(
        figure2_job(**kwargs, execution=ExecutionPolicy(**execution))
    )


def _wait_exit(backend, handle, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        code = backend.poll(handle)
        if code is not None:
            return code
        time.sleep(0.02)
    raise AssertionError("backend job did not exit in time")


class TestLocalBackend:
    def test_launch_poll_and_log(self, tmp_path):
        log = tmp_path / "job.log"
        with LocalBackend(slots=2) as backend:
            handle = backend.launch(
                [sys.executable, "-c", "print('hello from shard')"], log
            )
            assert _wait_exit(backend, handle) == 0
        assert "hello from shard" in log.read_text()

    def test_nonzero_exit_code_reported(self, tmp_path):
        with LocalBackend() as backend:
            handle = backend.launch(
                [sys.executable, "-c", "import sys; sys.exit(3)"],
                tmp_path / "job.log",
            )
            assert _wait_exit(backend, handle) == 3

    def test_cancel_kills_running_job(self, tmp_path):
        with LocalBackend() as backend:
            handle = backend.launch(
                [sys.executable, "-c", "import time; time.sleep(60)"],
                tmp_path / "job.log",
            )
            assert backend.poll(handle) is None
            backend.cancel(handle)
            assert backend.poll(handle) is not None

    def test_close_reaps_everything(self, tmp_path):
        backend = LocalBackend()
        handle = backend.launch(
            [sys.executable, "-c", "import time; time.sleep(60)"],
            tmp_path / "job.log",
        )
        backend.close()
        assert backend.poll(handle) is not None

    def test_launch_failure_raises_dispatch_error(self, tmp_path):
        with LocalBackend() as backend:
            with pytest.raises(DispatchError):
                backend.launch(
                    ["/nonexistent/binary/for/sure"], tmp_path / "job.log"
                )

    def test_log_appends_across_attempts(self, tmp_path):
        log = tmp_path / "job.log"
        with LocalBackend() as backend:
            for word in ("first", "second"):
                handle = backend.launch(
                    [sys.executable, "-c", f"print('{word}')"], log
                )
                _wait_exit(backend, handle)
        text = log.read_text()
        assert "first" in text and "second" in text

    def test_bad_slots_rejected(self):
        with pytest.raises(DispatchError):
            LocalBackend(slots=0)

    def test_foreign_handle_rejected(self):
        with LocalBackend() as backend:
            with pytest.raises(DispatchError):
                backend.poll("not a handle")


class TestTemplateBackend:
    def test_template_requires_placeholder(self):
        with pytest.raises(DispatchError):
            TemplateBackend(["ssh", "worker1"])

    def test_render_substitutes_quoted_command(self):
        backend = TemplateBackend(["ssh", "worker1", "{command}"])
        rendered = backend.render(["python", "-m", "repro", "--label", "a b"])
        assert rendered[:2] == ["ssh", "worker1"]
        assert rendered[2] == "python -m repro --label 'a b'"

    def test_embedded_placeholder(self):
        backend = TemplateBackend(["sh", "-c", "nice -n 10 {command}"])
        assert backend.render(["echo", "hi"]) == [
            "sh", "-c", "nice -n 10 echo hi",
        ]

    def test_forwarded_env_travels_inside_the_command(self, tmp_path):
        # ssh/queue shells don't inherit the local client's env, so the
        # PYTHONPATH guarantee must ride inside the command string.
        backend = TemplateBackend(["ssh", "worker1", "{command}"])
        rendered = backend.render(
            ["python", "-m", "repro"], env={"PYTHONPATH": "/repo/src", "HOME": "/x"}
        )
        assert rendered[2] == "env PYTHONPATH=/repo/src python -m repro"

    def test_forwarded_env_really_reaches_the_child(self, tmp_path):
        log = tmp_path / "job.log"
        with TemplateBackend(["sh", "-c", "{command}"]) as backend:
            handle = backend.launch(
                [sys.executable, "-c",
                 "import os; print('MARK=' + os.environ.get('PYTHONPATH', ''))"],
                log,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": "/from/template"},
            )
            assert _wait_exit(backend, handle) == 0
        assert "MARK=/from/template" in log.read_text()

    @pytest.mark.parametrize("pythonpath", [
        "/repo with spaces/src",            # spaces must survive the shell
        "/repo/src:",                       # trailing : (empty segment)
        ":/repo/src",                       # leading : (empty segment)
        "/a b/src::/c d/src",               # both hazards at once
        "/quo'te/src",                      # a quote in the path itself
    ])
    def test_forwarded_env_survives_shell_byte_identical(
        self, tmp_path, pythonpath
    ):
        # The satellite regression: PYTHONPATH values with spaces or
        # ':'-adjacent empty segments must arrive in the (template-side)
        # shell's child byte-identical, not re-split into extra argv
        # words or stripped of their empty segments.
        log = tmp_path / "job.log"
        with TemplateBackend(["sh", "-c", "{command}"]) as backend:
            handle = backend.launch(
                [sys.executable, "-c",
                 "import os; print('MARK=[' + os.environ['PYTHONPATH'] + ']')"],
                log,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
            )
            assert _wait_exit(backend, handle) == 0
        assert f"MARK=[{pythonpath}]" in log.read_text()

    def test_rendered_argv_words_survive_shell_byte_identical(self, tmp_path):
        # Same hazard on the command words themselves: an argument with
        # spaces and quotes must come out of the remote shell as one
        # argv element.
        log = tmp_path / "job.log"
        tricky = "a b 'c' \"d\" $HOME ;e"
        with TemplateBackend(["sh", "-c", "{command}"]) as backend:
            handle = backend.launch(
                [sys.executable, "-c", "import sys; print(sys.argv[1])",
                 tricky],
                log,
            )
            assert _wait_exit(backend, handle) == 0
        assert tricky in log.read_text()

    def test_render_quotes_each_piece(self):
        backend = TemplateBackend(["ssh", "worker1", "{command}"])
        rendered = backend.render(
            ["python", "-m", "repro"],
            env={"PYTHONPATH": "/my repo/src:"},
        )
        assert rendered[2] == "env 'PYTHONPATH=/my repo/src:' python -m repro"

    def test_template_dispatch_really_runs(self, tmp_path):
        # `sh -c {command}` is the smallest real template: the command
        # travels as one string, exactly as it would over SSH.
        log = tmp_path / "job.log"
        with TemplateBackend(["sh", "-c", "{command}"]) as backend:
            handle = backend.launch(
                [sys.executable, "-c", "print('via template')"], log
            )
            assert _wait_exit(backend, handle) == 0
        assert "via template" in log.read_text()

    def test_make_backend(self):
        assert isinstance(make_backend("local", slots=2), LocalBackend)
        templated = make_backend(
            "template", slots=2, template=["sh", "-c", "{command}"]
        )
        assert isinstance(templated, TemplateBackend)
        with pytest.raises(DispatchError):
            make_backend("slurm")
        with pytest.raises(DispatchError):
            make_backend("template")  # template kind without a template
        with pytest.raises(DispatchError):
            make_backend("local", template=["sh", "-c", "{command}"])


class TestPlans:
    @staticmethod
    def _embedded_job(plan):
        """The JobSpec JSON a plan's worker command carries verbatim."""
        argv = list(plan.argv)
        return json.loads(argv[argv.index("--job-json") + 1])

    def test_figure2_plan_matches_spec_identity(self):
        plan = _figure2_plan(m=2, n_tasksets=4, seed=11, step=0.5)
        spec = figure2_spec(m=2, n_tasksets=4, seed=11, step=0.5)
        assert plan.fingerprint == spec.fingerprint()
        assert plan.total_items == spec.total_items
        assert plan.kind == "sweep"
        # Worker command lines carry the declarative job, not flags.
        assert "sweep-run" in plan.argv
        assert self._embedded_job(plan)["workload"]["kind"] == "figure2"

    def test_group2_plan_matches_spec_identity(self):
        plan = plan_from_jobspec(group2_job(m=2, n_tasksets=4, seed=11, step=0.5))
        spec = group2_spec(m=2, n_tasksets=4, seed=11, step=0.5)
        assert plan.fingerprint == spec.fingerprint()
        assert plan.total_items == spec.total_items
        assert self._embedded_job(plan)["workload"]["kind"] == "group2"

    def test_splitsweep_plan(self):
        plan = plan_from_jobspec(splitsweep_job(
            m=2, utilization=1.2, thresholds=[25.0, 100.0], n_tasksets=5,
            seed=9,
        ))
        assert plan.kind == "splitsweep"
        assert plan.total_items == 5
        # Thresholds are normalised to descending order so the
        # fingerprint matches what the dispatched command computes.
        workload = self._embedded_job(plan)["workload"]
        assert workload["thresholds"] == [100.0, 25.0]

    def test_worker_job_carries_no_placement(self):
        # Per-shard placement is appended as flag overrides; a base
        # worker spec carrying any would make shards clobber each other.
        execution = self._embedded_job(
            _figure2_plan(m=2, n_tasksets=4, seed=11, step=0.5, jobs=3)
        )["execution"]
        assert execution["jobs"] == 3
        for field in ("shard", "shard_out", "stream", "checkpoint", "items"):
            assert execution[field] is None

    def test_plans_differ_by_parameters(self):
        base = _figure2_plan(m=2, n_tasksets=4, seed=11, step=0.5)
        assert base.fingerprint != _figure2_plan(
            m=2, n_tasksets=4, seed=12, step=0.5
        ).fingerprint
        assert base.fingerprint != plan_from_jobspec(group2_job(
            m=2, n_tasksets=4, seed=11, step=0.5
        )).fingerprint


class TestOrchestratorValidation:
    def _plan(self):
        return _figure2_plan(m=2, n_tasksets=4, seed=11, step=0.5)

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(OrchestrationError):
            Orchestrator(self._plan(), tmp_path, retries=-1)
        with pytest.raises(OrchestrationError):
            Orchestrator(self._plan(), tmp_path, poll_interval=-1.0)
        with pytest.raises(OrchestrationError):
            Orchestrator(self._plan(), tmp_path, stall_timeout=0.0)
        with pytest.raises(OrchestrationError):
            Orchestrator(self._plan(), tmp_path, shards=0)
        with pytest.raises(OrchestrationError):
            Orchestrator(self._plan(), tmp_path, elastic=True, elastic_after=-1.0)
        with pytest.raises(OrchestrationError):
            Orchestrator(self._plan(), tmp_path, elastic=True, elastic_min_items=1)
        with pytest.raises(OrchestrationError):
            Orchestrator(self._plan(), tmp_path, elastic=True, max_splits=-1)

    def test_foreign_directory_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({
            "version": 1, "fingerprint": "deadbeef", "shard_count": 2,
            "total_items": 12, "shards": [],
        }))
        with pytest.raises(OrchestrationError):
            Orchestrator(self._plan(), tmp_path, workers=2)._prepare_jobs()

    def test_shard_count_change_rejected(self, tmp_path):
        plan = self._plan()
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({
            "version": 1, "fingerprint": plan.fingerprint, "shard_count": 3,
            "total_items": plan.total_items, "shards": [],
        }))
        with pytest.raises(OrchestrationError):
            Orchestrator(plan, tmp_path, workers=2)._prepare_jobs()

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{ truncated")
        with pytest.raises(OrchestrationError):
            load_manifest(tmp_path)

    def test_version_skew_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"version": 99}))
        with pytest.raises(OrchestrationError):
            load_manifest(tmp_path)

    def test_missing_manifest_is_none(self, tmp_path):
        assert load_manifest(tmp_path) is None

    def test_status_needs_a_manifest(self, tmp_path):
        with pytest.raises(OrchestrationError):
            read_status(tmp_path)

    def test_prepare_cleans_stale_tmps(self, tmp_path):
        stale = tmp_path / "shard-1of2.json.12345.tmp"
        stale.write_text("{}")
        Orchestrator(self._plan(), tmp_path, workers=2)._prepare_jobs()
        assert not stale.exists()


class TestOrchestratorIntegration:
    """Real subprocess dispatch on tiny sweeps."""

    KWARGS = dict(m=2, n_tasksets=4, seed=11, step=0.5)

    def test_resume_reuses_finished_artifacts(self, tmp_path):
        plan = _figure2_plan(**self.KWARGS)
        out = tmp_path / "orch"
        first = Orchestrator(plan, out, workers=2).run()
        assert first.attempts == {0: 1, 1: 1}
        # Second run over the same directory: nothing left to dispatch.
        second = Orchestrator(plan, out, workers=2).run()
        assert second.attempts == {0: 0, 1: 0}
        # Both merges read the same artifacts, elapsed_seconds included.
        assert second.result == first.result

    def test_resume_is_independent_of_directory_order(
        self, tmp_path, monkeypatch
    ):
        # DET001 regression: sub-shard scanning, stale-file sweeps and
        # artifact reuse all walk globs of the output directory; a host
        # whose filesystem yields entries in a different order must
        # still resume to the bit-identical result.
        import pathlib

        plan = _figure2_plan(**self.KWARGS)
        out = tmp_path / "orch"
        first = Orchestrator(plan, out, workers=2).run()

        real_glob = pathlib.Path.glob

        def reversed_glob(self, pattern):
            return iter(sorted(real_glob(self, pattern), reverse=True))

        monkeypatch.setattr(pathlib.Path, "glob", reversed_glob)
        second = Orchestrator(plan, out, workers=2).run()
        assert second.attempts == {0: 0, 1: 0}
        assert second.result == first.result

    def test_resume_over_stale_stream_recovers(self, tmp_path):
        # An interrupted orchestration leaves a partial stream behind;
        # the resumed first launch must discard it before tailing, or
        # the live merger double-counts / reads mid-line offsets.
        plan = _figure2_plan(**self.KWARGS)
        out = tmp_path / "orch"
        out.mkdir()
        stale = out / "shard-1of2.jsonl"
        stale.write_text(
            json.dumps({
                "type": "header", "version": FORMAT_VERSION, "kind": "sweep",
                "fingerprint": plan.fingerprint, "shard": None,
                "total_items": plan.total_items, "meta": {},
            }) + "\n"
            + "".join(
                json.dumps({
                    "type": "item", "item": item, "rows": [],
                    "replayed": False,
                }) + "\n"
                for item in range(plan.total_items)
            )
        )
        outcome = Orchestrator(plan, out, workers=2, poll_interval=0.05).run()
        assert outcome.view.done_items == plan.total_items  # not doubled
        # A resume is not a retry: the restarts metric stays clean.
        assert all(s.restarts == 0 for s in outcome.view.shards)

    def test_exhausted_retries_raise(self, tmp_path):
        plan = _figure2_plan(**self.KWARGS)

        class AlwaysFails(LocalBackend):
            def launch(self, argv, log_path, env=None):
                return super().launch(
                    [sys.executable, "-c", "import sys; sys.exit(7)"],
                    log_path, env=env,
                )

        with AlwaysFails(slots=2) as backend:
            with pytest.raises(OrchestrationError, match="failed"):
                Orchestrator(
                    plan, tmp_path / "orch", backend=backend, retries=1,
                    poll_interval=0.05,
                ).run()
        manifest = load_manifest(tmp_path / "orch")
        assert manifest["state"] == "failed"

    def test_failed_launch_is_retried_not_fatal(self, tmp_path):
        # A slot can vanish between the orchestrator's slots check and
        # the launch (an idle daemon dying): the DispatchError must
        # count as a failed attempt and heal, not abort the run.
        plan = _figure2_plan(**self.KWARGS)

        class LaunchFlake(LocalBackend):
            def __init__(self):
                super().__init__(slots=2)
                self.flaked = 0

            def launch(self, argv, log_path, env=None):
                if self.flaked == 0 and "--shard" in list(argv):
                    self.flaked += 1
                    raise DispatchError("slot vanished under the launch")
                return super().launch(argv, log_path, env=env)

        with LaunchFlake() as backend:
            outcome = Orchestrator(
                plan, tmp_path / "orch", backend=backend, retries=2,
                poll_interval=0.05,
            ).run()
        assert backend.flaked == 1
        assert outcome.retries >= 1
        assert outcome.view.done_items == plan.total_items

    def test_exhausted_launch_failures_raise(self, tmp_path):
        plan = _figure2_plan(**self.KWARGS)

        class NeverLaunches(LocalBackend):
            def __init__(self):
                super().__init__(slots=2)

            def launch(self, argv, log_path, env=None):
                raise DispatchError("no slot, ever")

        with NeverLaunches() as backend:
            with pytest.raises(OrchestrationError, match="could not be launched"):
                Orchestrator(
                    plan, tmp_path / "orch", backend=backend, retries=1,
                    poll_interval=0.01,
                ).run()

    def test_never_started_shard_trips_stall_relaunch(self, tmp_path):
        # Satellite regression: a backend launch that "succeeds" but
        # whose process dies pre-open (here: never opens the stream and
        # never exits) must trip the stall relaunch purely off the
        # launch clock — there is no stream progress to wait on.
        plan = _figure2_plan(**self.KWARGS)

        class NeverStarts(LocalBackend):
            def __init__(self):
                super().__init__(slots=2)
                self.sabotaged = 0

            def launch(self, argv, log_path, env=None):
                if self.sabotaged == 0 and "--shard" in list(argv):
                    self.sabotaged += 1
                    return super().launch(
                        [sys.executable, "-c", "import time; time.sleep(600)"],
                        log_path, env=env,
                    )
                return super().launch(argv, log_path, env=env)

        with NeverStarts() as backend:
            outcome = Orchestrator(
                plan, tmp_path / "orch", backend=backend, retries=3,
                poll_interval=0.05, stall_timeout=3.0,
            ).run()
        assert backend.sabotaged == 1
        assert outcome.retries >= 1
        # The sabotaged shard's stream was never created, yet every
        # item was recovered by the relaunch.
        assert outcome.view.done_items == plan.total_items

    def test_stalled_shard_is_relaunched(self, tmp_path):
        plan = _figure2_plan(**self.KWARGS)

        class StallsOnce(LocalBackend):
            def __init__(self):
                super().__init__(slots=2)
                self.stalled = 0

            def launch(self, argv, log_path, env=None):
                if self.stalled == 0 and "--shard" in list(argv):
                    self.stalled += 1
                    return super().launch(
                        [sys.executable, "-c", "import time; time.sleep(600)"],
                        log_path, env=env,
                    )
                return super().launch(argv, log_path, env=env)

        with StallsOnce() as backend:
            # 3s, not 1s: worker start-up (interpreter + numpy import)
            # already costs >1s on a loaded single-core box, so a 1s
            # stall timeout intermittently killed *healthy* shards.
            outcome = Orchestrator(
                plan, tmp_path / "orch", backend=backend, retries=3,
                poll_interval=0.05, stall_timeout=3.0,
            ).run()
        assert outcome.retries >= 1
        assert sum(s.restarts for s in outcome.view.shards) >= 1

    def test_resume_reuses_finished_sub_shard_artifacts(self, tmp_path):
        # Satellite (resumable elastic orchestrations): an interrupted
        # elastic run leaves finished *sub-shard* artifacts behind; a
        # resumed run must reuse them and dispatch only the uncovered
        # remainder, instead of recomputing the slice from scratch.
        import dataclasses

        from repro.engine import ShardSpec
        from repro.engine.shard import load_shard

        plan = _figure2_plan(**self.KWARGS)
        out = tmp_path / "orch"
        out.mkdir()
        shard = ShardSpec(0, 2)
        slice_items = list(shard.items(plan.total_items))
        sub_items = slice_items[: len(slice_items) // 2]
        sub_artifact = out / "shard-1of2.sub1-1of2.artifact.json"
        run_job(figure2_job(**self.KWARGS, execution=ExecutionPolicy(
            shard=shard, items=sub_items, shard_out=sub_artifact,
            stream=out / "shard-1of2.sub1-1of2.jsonl",
        )))
        reference = run_job(figure2_job(**self.KWARGS))
        before = sub_artifact.read_bytes()

        outcome = Orchestrator(plan, out, workers=2, poll_interval=0.05).run()

        # The sub artifact was reused byte-for-byte, not recomputed.
        assert sub_artifact.read_bytes() == before
        assert sorted(outcome.attempts.values()).count(0) == 1
        # The remainder invocation computed exactly the uncovered items.
        remainder = load_shard(out / "shard-1of2.resume1.artifact.json")
        assert remainder.covered_items() == (
            set(slice_items) - set(sub_items)
        )
        strip = lambda r: dataclasses.replace(r, elapsed_seconds=0.0)  # noqa: E731
        assert strip(outcome.result) == strip(reference)

        # A third run over the same directory reuses everything.
        again = Orchestrator(plan, out, workers=2, poll_interval=0.05).run()
        assert set(again.attempts.values()) == {0}
        assert again.result == outcome.result

    def test_corrupt_sub_artifacts_cleaned_not_reused(self, tmp_path):
        plan = _figure2_plan(**self.KWARGS)
        out = tmp_path / "orch"
        out.mkdir()
        stale = out / "shard-1of2.sub1-1of2.artifact.json"
        stale.write_text("{ corrupt")
        (out / "shard-1of2.sub1-1of2.jsonl").write_text("garbage\n")
        outcome = Orchestrator(plan, out, workers=2, poll_interval=0.05).run()
        # Nothing reusable: whole shards were dispatched, the stale
        # partial files swept so they cannot shadow the fresh attempt.
        assert outcome.attempts == {0: 1, 1: 1}
        assert not stale.exists()
        assert outcome.view.done_items == plan.total_items

    def test_invalid_partials_swept_even_when_others_are_reused(self, tmp_path):
        # A valid sub artifact next to a corrupt one: the good one is
        # reused, the bad one must still be deleted or it would poison
        # the `shard-*.artifact.json` merge glob sweep-status prints.
        from repro.engine import ShardSpec

        plan = _figure2_plan(**self.KWARGS)
        out = tmp_path / "orch"
        out.mkdir()
        shard = ShardSpec(0, 2)
        slice_items = list(shard.items(plan.total_items))
        run_job(figure2_job(**self.KWARGS, execution=ExecutionPolicy(
            shard=shard, items=slice_items[:2],
            shard_out=out / "shard-1of2.sub1-1of2.artifact.json",
        )))
        corrupt = out / "shard-1of2.sub1-2of2.artifact.json"
        corrupt.write_text("{ corrupt")
        outcome = Orchestrator(plan, out, workers=2, poll_interval=0.05).run()
        assert not corrupt.exists()
        assert sorted(outcome.attempts.values()).count(0) == 1  # reused
        import dataclasses

        reference = run_job(figure2_job(**self.KWARGS))
        strip = lambda r: dataclasses.replace(r, elapsed_seconds=0.0)  # noqa: E731
        assert strip(outcome.result) == strip(reference)

    def test_sub_artifact_of_other_sweep_not_reused(self, tmp_path):
        from repro.engine import ShardSpec

        plan = _figure2_plan(**self.KWARGS)
        out = tmp_path / "orch"
        out.mkdir()
        shard = ShardSpec(0, 2)
        other = dict(self.KWARGS, seed=self.KWARGS["seed"] + 1)
        foreign = out / "shard-1of2.sub1-1of2.artifact.json"
        run_job(figure2_job(**other, execution=ExecutionPolicy(
            shard=shard, items=list(shard.items(plan.total_items))[:1],
            shard_out=foreign,
        )))
        outcome = Orchestrator(plan, out, workers=2, poll_interval=0.05).run()
        assert outcome.attempts == {0: 1, 1: 1}  # recomputed whole shards
        assert not foreign.exists()

    def test_status_on_live_directory(self, tmp_path):
        # Build a half-done orchestration by hand: one finished shard
        # artifact+stream, one shard mid-run (stream only).
        from repro.engine import ShardSpec

        plan = _figure2_plan(**self.KWARGS)
        out = tmp_path / "orch"
        out.mkdir()
        run_job(figure2_job(**self.KWARGS, execution=ExecutionPolicy(
            shard=ShardSpec(0, 2),
            shard_out=out / "shard-1of2.json", stream=out / "shard-1of2.jsonl",
        )))
        manifest = {
            "version": FORMAT_VERSION, "experiment": "figure2", "kind": "sweep",
            "fingerprint": plan.fingerprint,
            "total_items": plan.total_items, "shard_count": 2,
            "argv": list(plan.argv), "state": "running",
            "shards": [
                {"index": 0, "artifact": "shard-1of2.json",
                 "stream": "shard-1of2.jsonl", "checkpoint": None,
                 "log": "shard-1of2.log", "attempts": 1},
                {"index": 1, "artifact": "shard-2of2.json",
                 "stream": "shard-2of2.jsonl", "checkpoint": None,
                 "log": "shard-2of2.log", "attempts": 1},
            ],
        }
        (out / MANIFEST_NAME).write_text(json.dumps(manifest))
        status = read_status(out)
        assert not status.complete
        assert status.artifacts_done == {0: True, 1: False}
        assert status.view.done_items == plan.total_items // 2
        assert status.view.shards[0].state == "finished"
        assert status.view.shards[1].state == "waiting"


class TestCacheAwarePlacement:
    """Cache-aware placement is gone: plans generate nothing, and old
    manifests resume only when they were partitioned strided."""

    def test_strided_plan_skips_fingerprints(self, monkeypatch):
        import repro.engine.sweep as sweep_module

        def no_generation(*args, **kwargs):
            raise AssertionError("planning generated a task-set")

        monkeypatch.setattr(sweep_module, "generate_taskset", no_generation)
        plan = _figure2_plan(m=2, n_tasksets=4, seed=11, step=0.5)
        assert plan.total_items == 12

    def test_resume_placement_mismatch_rejected(self, tmp_path):
        plan = _figure2_plan(m=2, n_tasksets=4, seed=11, step=0.5)
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({
            "version": FORMAT_VERSION, "fingerprint": plan.fingerprint,
            "shard_count": 2, "total_items": plan.total_items,
            "placement": "cache-aware", "shards": [],
        }))
        with pytest.raises(OrchestrationError, match="'cache-aware' placement"):
            Orchestrator(plan, tmp_path, workers=2)._prepare_jobs()

    def test_strided_manifest_still_resumes(self, tmp_path):
        plan = _figure2_plan(m=2, n_tasksets=2, seed=11, step=1.0)
        first = Orchestrator(plan, tmp_path, workers=2, poll_interval=0.05).run()
        # Manifests written while placement existed record "strided".
        manifest = load_manifest(tmp_path)
        assert "placement" not in manifest
        manifest["placement"] = "strided"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        again = Orchestrator(plan, tmp_path, workers=2, poll_interval=0.05).run()
        assert again.result.points == first.result.points
        assert again.attempts == {0: 0, 1: 0}  # both artifacts reused
