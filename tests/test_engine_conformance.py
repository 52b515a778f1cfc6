"""Cross-executor conformance suite for the sweep engine.

The engine's contract is a single sentence: *for one
:class:`~repro.engine.SweepSpec`, every execution mode produces the
same result, bit for bit*.  This suite pins that sentence down across
the whole mode matrix —

* executors: serial and multiprocessing pool;
* chunking: any chunk size, including sizes that straddle points;
* sharding: any partition into 1..4 shards, merged via
  :func:`~repro.engine.registry.merge_artifacts`;
* interruption: a run killed mid-sweep and resumed from its checkpoint,
  sharded or not;
* streaming: the JSONL stream's item records reduce to the final counts;
* orchestration: a whole sweep dispatched as shard subprocesses by the
  orchestrator tier — including a shard that fails and is retried —
  merges back to the exact serial result.

Experiment-level cases start every run the way the CLI does: as a
:class:`~repro.engine.jobspec.JobSpec`, through
:func:`~repro.engine.session.run_job` or
:func:`~repro.engine.orchestrator.plan_from_jobspec`.

"Bit for bit" means full :class:`~repro.engine.SweepResult` dataclass
equality with only the wall-clock field zeroed (:func:`_strip`): same
points, same denominators, same method names, same counts.  Specs are
hypothesis-generated (``tests/strategies.sweep_specs``) so the matrix
is exercised over many shapes, not one blessed example.
"""

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    MultiprocessExecutor,
    SerialExecutor,
    ShardSpec,
    SweepEngine,
    SweepResult,
    SweepSpec,
    read_stream,
)
from repro.engine.jobspec import ExecutionPolicy
from repro.engine.orchestrator import plan_from_jobspec
from repro.engine.registry import merge_artifacts
from repro.engine.session import run_job
from repro.experiments.figure2 import figure2_job
from repro.experiments.splitsweep import splitsweep_job
from repro.generator.profiles import GROUP1
from tests.strategies import sweep_specs

#: Shared hypothesis profile: engine runs are slow-ish per example, so
#: keep example counts small and disable the per-example deadline.
CONFORMANCE = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _strip(result: SweepResult) -> SweepResult:
    """The result minus wall-clock, for bit-for-bit comparison."""
    return dataclasses.replace(result, elapsed_seconds=0.0)


def _reference(spec: SweepSpec) -> SweepResult:
    """The baseline every mode must reproduce: serial, chunk size 1."""
    return _strip(SweepEngine().run(spec))


class _InterruptingExecutor:
    """Serial executor that dies (like Ctrl-C) after ``after`` chunks."""

    jobs = 1

    def __init__(self, after: int) -> None:
        self.after = after

    def map_unordered(self, fn, payloads):
        for index, payload in enumerate(payloads):
            if index == self.after:
                raise KeyboardInterrupt
            yield fn(payload)


def _stream_counts(dump) -> dict[int, dict[str, int]]:
    """Per-point, per-method schedulable counts over a grid stream's items."""
    meta = dump.header["meta"]
    counts: dict[int, dict[str, int]] = {}
    for item, (verdicts,) in dump.records.items():
        point = counts.setdefault(
            item // meta["n_tasksets"], dict.fromkeys(meta["methods"], 0)
        )
        for method, schedulable in zip(meta["methods"], verdicts):
            point[method] += schedulable
    return counts


def _fixed_spec(**overrides) -> SweepSpec:
    defaults = dict(
        m=2,
        utilizations=(0.5, 1.0, 1.5),
        n_tasksets=4,
        profile=GROUP1,
        seed=20160314,
        label="conformance-fixed",
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestExecutorConformance:
    """serial == multiprocess, with and without chunking."""

    def test_all_executors_bit_identical(self):
        spec = _fixed_spec()
        reference = _reference(spec)
        for executor in (SerialExecutor(), MultiprocessExecutor(3)):
            with executor:
                result = SweepEngine(executor=executor).run(spec)
            assert _strip(result) == reference, type(executor).__name__

    @pytest.fixture(scope="class")
    def process_pool(self):
        # One pool serves every hypothesis example.
        with MultiprocessExecutor(2) as executor:
            yield executor

    @CONFORMANCE
    @given(spec=sweep_specs(), chunk_size=st.integers(1, 7))
    def test_process_executor_any_chunking(self, spec, chunk_size, process_pool):
        reference = _reference(spec)
        chunked = SweepEngine(
            executor=process_pool, chunk_size=chunk_size
        ).run(spec)
        assert _strip(chunked) == reference

    @CONFORMANCE
    @given(spec=sweep_specs(), chunk_size=st.integers(1, 7))
    def test_serial_any_chunking(self, spec, chunk_size):
        assert _strip(SweepEngine(chunk_size=chunk_size).run(spec)) == _reference(
            spec
        )


class TestShardConformance:
    """Any shard partition merges back to the exact serial result."""

    @CONFORMANCE
    @given(
        spec=sweep_specs(),
        shard_count=st.integers(1, 4),
        chunk_size=st.integers(1, 5),
    )
    def test_any_partition_merges_bit_identical(
        self, spec, shard_count, chunk_size
    ):
        reference = _reference(spec)
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for index in range(shard_count):
                path = Path(tmp) / f"shard{index}.json"
                SweepEngine(chunk_size=chunk_size).run(
                    spec, shard=ShardSpec(index, shard_count), shard_out=path
                )
                paths.append(path)
            assert _strip(merge_artifacts(paths)) == reference

    def test_sharded_runs_on_any_executor(self):
        spec = _fixed_spec(n_tasksets=5)
        reference = _reference(spec)
        for executor in (SerialExecutor(), MultiprocessExecutor(2)):
            with executor, tempfile.TemporaryDirectory() as tmp:
                paths = []
                for index in range(3):
                    path = Path(tmp) / f"shard{index}.json"
                    SweepEngine(executor=executor).run(
                        spec, shard=ShardSpec(index, 3), shard_out=path
                    )
                    paths.append(path)
                assert _strip(merge_artifacts(paths)) == reference, (
                    type(executor).__name__
                )

    def test_partial_shard_result_denominators(self):
        # 2 points x 5 task-sets striped over 3 shards: shard 0 owns
        # items 0,3,6,9 -> 2 items per point.
        spec = _fixed_spec(utilizations=(0.5, 1.5), n_tasksets=5)
        partial = SweepEngine().run(spec, shard=ShardSpec(0, 3))
        assert [p.n_tasksets for p in partial.points] == [2, 2]
        full = SweepEngine().run(spec)
        assert [p.n_tasksets for p in full.points] == [5, 5]


class TestInterruptResumeConformance:
    """A killed run resumed from its checkpoint finishes bit-identically."""

    @CONFORMANCE
    @given(spec=sweep_specs(), interrupt_after=st.integers(0, 5))
    def test_interrupted_then_resumed(self, spec, interrupt_after):
        reference = _reference(spec)
        with tempfile.TemporaryDirectory() as tmp:
            checkpoint = Path(tmp) / "cp.json"
            interrupted = SweepEngine(
                executor=_InterruptingExecutor(interrupt_after),
                checkpoint_path=checkpoint,
                checkpoint_interval=0.0,
            )
            try:
                interrupted.run(spec)
            except KeyboardInterrupt:
                pass
            resumed = SweepEngine(checkpoint_path=checkpoint).run(spec)
            assert _strip(resumed) == reference

    def test_interrupted_shard_resumes_and_merges(self):
        spec = _fixed_spec()
        reference = _reference(spec)
        with tempfile.TemporaryDirectory() as tmp:
            shard0 = ShardSpec(0, 2)
            checkpoint = Path(tmp) / "cp0.json"
            paths = [Path(tmp) / "s0.json", Path(tmp) / "s1.json"]
            try:
                SweepEngine(
                    executor=_InterruptingExecutor(2),
                    checkpoint_path=checkpoint,
                    checkpoint_interval=0.0,
                ).run(spec, shard=shard0, shard_out=paths[0])
            except KeyboardInterrupt:
                pass
            assert not paths[0].exists()  # artifact only on completion
            SweepEngine(checkpoint_path=checkpoint).run(
                spec, shard=shard0, shard_out=paths[0]
            )
            SweepEngine().run(spec, shard=ShardSpec(1, 2), shard_out=paths[1])
            assert _strip(merge_artifacts(paths)) == reference

    def test_shard_checkpoints_are_not_interchangeable(self):
        from repro.exceptions import AnalysisError

        spec = _fixed_spec()
        with tempfile.TemporaryDirectory() as tmp:
            checkpoint = Path(tmp) / "cp.json"
            SweepEngine(checkpoint_path=checkpoint).run(spec, shard=ShardSpec(0, 2))
            with pytest.raises(AnalysisError):
                SweepEngine(checkpoint_path=checkpoint).run(
                    spec, shard=ShardSpec(1, 2)
                )
            with pytest.raises(AnalysisError):
                SweepEngine(checkpoint_path=checkpoint).run(spec)


class TestStreamConformance:
    """The JSONL stream reproduces the final counts exactly."""

    @CONFORMANCE
    @given(spec=sweep_specs(), chunk_size=st.integers(1, 5))
    def test_stream_records_sum_to_result(self, spec, chunk_size):
        with tempfile.TemporaryDirectory() as tmp:
            stream = Path(tmp) / "sweep.jsonl"
            result = SweepEngine(chunk_size=chunk_size).run(spec, stream=stream)
            dump = read_stream(stream)
            assert dump.complete
            assert dump.header["fingerprint"] == spec.fingerprint()
            assert dump.header["total_items"] == spec.total_items
            expected = {
                point: dict(p.schedulable)
                for point, p in enumerate(result.points)
            }
            assert _stream_counts(dump) == expected

    def test_resumed_stream_is_self_contained(self):
        spec = _fixed_spec()
        reference = _reference(spec)
        with tempfile.TemporaryDirectory() as tmp:
            checkpoint = Path(tmp) / "cp.json"
            stream = Path(tmp) / "sweep.jsonl"
            try:
                SweepEngine(
                    executor=_InterruptingExecutor(3),
                    checkpoint_path=checkpoint,
                    checkpoint_interval=0.0,
                ).run(spec, stream=stream)
            except KeyboardInterrupt:
                pass
            partial = read_stream(stream)
            assert not partial.complete  # no summary line: torn run
            SweepEngine(checkpoint_path=checkpoint).run(spec, stream=stream)
            dump = read_stream(stream)
            assert dump.complete
            assert sorted(dump.records) == list(range(spec.total_items))
            expected = {
                point: dict(p.schedulable)
                for point, p in enumerate(reference.points)
            }
            assert _stream_counts(dump) == expected
            from repro.engine.streaming import iter_stream

            replayed = [
                line
                for line in iter_stream(stream)
                if line.get("type") == "item" and line.get("replayed")
            ]
            assert replayed  # checkpointed items re-emitted into new stream


class TestExperimentConformance:
    """The acceptance criterion, at the experiment API level."""

    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4])
    def test_figure2_sharded_merge_bit_identical(self, shard_count, tmp_path):
        kwargs = dict(m=2, n_tasksets=4, seed=11, step=0.5)
        reference = _strip(run_job(figure2_job(**kwargs)))
        paths = []
        for index in range(shard_count):
            path = tmp_path / f"fig2-{index}.json"
            run_job(figure2_job(**kwargs, execution=ExecutionPolicy(
                shard=ShardSpec(index, shard_count), shard_out=path,
            )))
            paths.append(path)
        assert _strip(merge_artifacts(paths)) == reference

    def test_splitsweep_sharded_merge_bit_identical(self, tmp_path):
        kwargs = dict(
            m=2, utilization=1.2, thresholds=[100.0, 25.0], n_tasksets=5,
            seed=9, overhead=0.5,
        )
        reference = run_job(splitsweep_job(**kwargs))
        paths = []
        for index in range(2):
            path = tmp_path / f"split-{index}.json"
            run_job(splitsweep_job(**kwargs, execution=ExecutionPolicy(
                shard=ShardSpec(index, 2), shard_out=path,
            )))
            paths.append(path)
        # Bit-identical including the float means: the merge reduces
        # per-item rows in corpus order, exactly like the serial run.
        assert merge_artifacts(paths) == reference

    def test_splitsweep_parallel_jobs_bit_identical(self):
        kwargs = dict(
            m=2, utilization=1.2, thresholds=[100.0, 25.0], n_tasksets=4,
            seed=9,
        )
        assert run_job(
            splitsweep_job(**kwargs, execution=ExecutionPolicy(jobs=2))
        ) == run_job(splitsweep_job(**kwargs))


class TestOrchestratorConformance:
    """The one-command cluster run reproduces the serial result exactly."""

    KWARGS = dict(m=2, n_tasksets=4, seed=11, step=0.5)

    def _reference(self):
        return _strip(run_job(figure2_job(**self.KWARGS)))

    def test_orchestrated_figure2_bit_identical(self, tmp_path):
        from repro.engine.orchestrator import Orchestrator

        plan = plan_from_jobspec(figure2_job(**self.KWARGS))
        outcome = Orchestrator(
            plan, tmp_path / "orch", workers=3, poll_interval=0.05
        ).run()
        assert _strip(outcome.result) == self._reference()
        assert outcome.view.done_items == plan.total_items
        assert outcome.retries == 0

    def test_failed_shard_retried_and_still_bit_identical(self, tmp_path):
        import sys

        from repro.engine.backends import LocalBackend
        from repro.engine.orchestrator import Orchestrator

        class FlakyBackend(LocalBackend):
            """First launch of shard 2/3 dies immediately (exit 3)."""

            def __init__(self):
                super().__init__(slots=3)
                self.sabotaged = 0

            def launch(self, argv, log_path, env=None):
                argv = list(argv)
                if self.sabotaged == 0 and "--shard" in argv:
                    if argv[argv.index("--shard") + 1] == "2/3":
                        self.sabotaged += 1
                        argv = [sys.executable, "-c", "import sys; sys.exit(3)"]
                return super().launch(argv, log_path, env=env)

        plan = plan_from_jobspec(figure2_job(**self.KWARGS))
        with FlakyBackend() as backend:
            outcome = Orchestrator(
                plan, tmp_path / "orch", backend=backend, retries=2,
                poll_interval=0.05,
            ).run()
        assert backend.sabotaged == 1
        assert outcome.retries == 1
        assert outcome.attempts[1] == 2  # shard 2/3 needed a second launch
        assert _strip(outcome.result) == self._reference()

    def test_orchestrated_splitsweep_identical(self, tmp_path):
        from repro.engine.orchestrator import Orchestrator

        kwargs = dict(
            m=2, utilization=1.2, thresholds=[100.0, 25.0], n_tasksets=5,
            seed=9, overhead=0.5,
        )
        reference = run_job(splitsweep_job(**kwargs))
        outcome = Orchestrator(
            plan_from_jobspec(splitsweep_job(**kwargs)), tmp_path / "orch",
            workers=2, poll_interval=0.05,
        ).run()
        assert outcome.result == reference


class TestElasticConformance:
    """Elastic re-partitioning keeps the bit-identical contract.

    Sub-shard artifacts (same shard coordinates, disjoint item subsets,
    the first inheriting the straggler's checkpoint) must reassemble
    into exactly the serial result — at the merge level for arbitrary
    hypothesis-generated partitions, and end to end through an
    orchestrator that really splits stragglers onto idle slots.
    """

    @CONFORMANCE
    @given(
        spec=sweep_specs(),
        shard_count=st.integers(1, 3),
        data=st.data(),
    )
    def test_any_elastic_partition_merges_bit_identical(
        self, spec, shard_count, data
    ):
        reference = _reference(spec)
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for index in range(shard_count):
                shard = ShardSpec(index, shard_count)
                items = list(shard.items(spec.total_items))
                if len(items) >= 2 and data.draw(
                    st.booleans(), label=f"split shard {index}"
                ):
                    # Split this shard like the orchestrator would:
                    # covered prefix inherited by sub-shard 1, the rest
                    # strided over 2..parts sub-shards.
                    parts = data.draw(
                        st.integers(2, min(4, len(items))),
                        label=f"parts of shard {index}",
                    )
                    cut = data.draw(
                        st.integers(0, len(items) - parts),
                        label=f"covered prefix of shard {index}",
                    )
                    covered, remaining = items[:cut], items[cut:]
                    groups = [remaining[p::parts] for p in range(parts)]
                    subsets = [sorted(covered + groups[0]), *groups[1:]]
                    for part, subset in enumerate(subsets):
                        path = Path(tmp) / f"s{index}.{part}.json"
                        SweepEngine().run(
                            spec, shard=shard, shard_out=path, items=subset
                        )
                        paths.append(path)
                else:
                    path = Path(tmp) / f"s{index}.json"
                    SweepEngine().run(spec, shard=shard, shard_out=path)
                    paths.append(path)
            assert _strip(merge_artifacts(paths)) == reference

    def test_orchestrated_elastic_split_bit_identical(self, tmp_path):
        # 2 shards on 3 slots: the idle slot forces a split immediately
        # (elastic_after=0), so the merged result really is assembled
        # from sub-shard artifacts.
        from repro.engine.orchestrator import Orchestrator

        kwargs = dict(m=2, n_tasksets=6, seed=11, step=0.5)
        reference = _strip(run_job(figure2_job(**kwargs)))
        plan = plan_from_jobspec(figure2_job(**kwargs))
        outcome = Orchestrator(
            plan, tmp_path / "orch", workers=3, shards=2,
            poll_interval=0.05, elastic=True, elastic_after=0.0,
        ).run()
        assert outcome.splits >= 1
        assert _strip(outcome.result) == reference
        # The artifacts on disk are themselves a mergeable set — the
        # sweep-merge glob path works on an elastically-split run.
        artifacts = sorted((tmp_path / "orch").glob("shard-*.artifact.json"))
        assert len(artifacts) > 2  # sub-shards present
        assert _strip(merge_artifacts(artifacts)) == reference


class TestDaemonConformance:
    """Daemon-backend orchestration reproduces the serial result."""

    KWARGS = dict(m=2, n_tasksets=6, seed=11, step=0.5)

    @pytest.fixture
    def daemon_pool(self):
        import tempfile as tf

        from repro.engine.daemon import WorkerDaemon

        with tf.TemporaryDirectory(prefix="reprod-", dir="/tmp") as tmp:
            daemons = []
            for index in range(3):
                daemon = WorkerDaemon(Path(tmp) / f"w{index}.sock")
                daemon.serve_in_thread()
                daemons.append(daemon)
            try:
                yield daemons
            finally:
                for daemon in daemons:
                    daemon.stop()

    def test_daemon_orchestration_bit_identical(self, daemon_pool, tmp_path):
        from repro.engine.backends import DaemonBackend
        from repro.engine.orchestrator import Orchestrator

        reference = _strip(run_job(figure2_job(**self.KWARGS)))
        plan = plan_from_jobspec(figure2_job(**self.KWARGS))
        with DaemonBackend([d.socket_path for d in daemon_pool]) as backend:
            outcome = Orchestrator(
                plan, tmp_path / "orch", backend=backend, poll_interval=0.05,
            ).run()
        assert _strip(outcome.result) == reference
        assert outcome.retries == 0

    def test_daemon_killed_mid_run_with_elastic_still_bit_identical(
        self, daemon_pool, tmp_path
    ):
        # The acceptance-criteria case: daemons + elastic splits + a
        # daemon dying mid-run, healed back to the exact serial result.
        from repro.engine.backends import DaemonBackend
        from repro.engine.orchestrator import Orchestrator

        reference = _strip(run_job(figure2_job(**self.KWARGS)))
        plan = plan_from_jobspec(figure2_job(**self.KWARGS))
        killed = {"done": False}

        def progress(view):
            if not killed["done"] and any(
                s.state != "waiting" for s in view.shards
            ):
                daemon_pool[0].stop()  # socket dies like a SIGKILL
                killed["done"] = True

        with DaemonBackend([d.socket_path for d in daemon_pool]) as backend:
            outcome = Orchestrator(
                plan, tmp_path / "orch", backend=backend, shards=2,
                retries=3, poll_interval=0.05,
                elastic=True, elastic_after=0.0, progress=progress,
            ).run()
        assert killed["done"]
        assert _strip(outcome.result) == reference


class TestCacheConformance:
    """The verdict cache never changes a result — only how fast it lands.

    Cache-off, cache-miss (cold readwrite), cache-hit (warm read) and
    cross-process cache sharing must all be bit-identical to the plain
    serial run; telemetry must account for every item.
    """

    def _cache_totals(self, stream: Path) -> tuple[int, int]:
        from repro.engine.streaming import iter_stream

        hits = misses = 0
        for line in iter_stream(stream):
            if line.get("type") == "item" and "cache" in line:
                hits += line["cache"]["hits"]
                misses += line["cache"]["misses"]
        return hits, misses

    @CONFORMANCE
    @given(spec=sweep_specs(), chunk_size=st.integers(1, 5))
    def test_cache_modes_bit_identical(self, spec, chunk_size):
        reference = _reference(spec)
        with tempfile.TemporaryDirectory() as tmp:
            cache_dir = Path(tmp) / "cache"
            cold = SweepEngine(
                chunk_size=chunk_size, cache="readwrite", cache_dir=cache_dir
            ).run(spec, stream=Path(tmp) / "cold.jsonl")
            warm = SweepEngine(
                chunk_size=chunk_size, cache="read", cache_dir=cache_dir
            ).run(spec, stream=Path(tmp) / "warm.jsonl")
            assert _strip(cold) == reference
            assert _strip(warm) == reference
            hits, misses = self._cache_totals(Path(tmp) / "cold.jsonl")
            assert (hits, misses) == (0, spec.total_items)
            hits, misses = self._cache_totals(Path(tmp) / "warm.jsonl")
            assert (hits, misses) == (spec.total_items, 0)

    def test_cache_shared_across_executors(self, tmp_path):
        # A serial run populates the cache; pool workers then serve the
        # whole sweep from it — and still reproduce the exact result.
        spec = _fixed_spec()
        reference = _reference(spec)
        cache_dir = tmp_path / "cache"
        SweepEngine(cache="readwrite", cache_dir=cache_dir).run(spec)
        for executor in (SerialExecutor(), MultiprocessExecutor(3)):
            stream = tmp_path / f"{type(executor).__name__}.jsonl"
            with executor:
                result = SweepEngine(
                    executor=executor, cache="read", cache_dir=cache_dir
                ).run(spec, stream=stream)
            assert _strip(result) == reference, type(executor).__name__
            hits, misses = self._cache_totals(stream)
            assert (hits, misses) == (spec.total_items, 0)

    def test_sharded_runs_share_one_cache(self, tmp_path):
        spec = _fixed_spec(n_tasksets=5)
        reference = _reference(spec)
        cache_dir = tmp_path / "cache"
        paths = []
        for index in range(3):
            path = tmp_path / f"shard{index}.json"
            SweepEngine(cache="readwrite", cache_dir=cache_dir).run(
                spec, shard=ShardSpec(index, 3), shard_out=path
            )
            paths.append(path)
        assert _strip(merge_artifacts(paths)) == reference
        # Re-merging from a fully warm cache is still bit-identical.
        paths2 = []
        for index in range(3):
            path = tmp_path / f"warm{index}.json"
            stream = tmp_path / f"warm{index}.jsonl"
            SweepEngine(cache="read", cache_dir=cache_dir).run(
                spec, shard=ShardSpec(index, 3), shard_out=path, stream=stream
            )
            hits, misses = self._cache_totals(stream)
            assert misses == 0 and hits > 0
            paths2.append(path)
        assert _strip(merge_artifacts(paths2)) == reference

    def test_daemon_killed_mid_run_with_warm_cache_bit_identical(
        self, tmp_path
    ):
        # The acceptance-criteria case with the cache in the loop: a
        # pre-warmed verdict cache, daemon workers, an elastic split,
        # and a daemon killed mid-run — healed to the exact serial
        # result, with cache hits visible in the cluster view.
        import tempfile as tf

        from repro.engine.backends import DaemonBackend
        from repro.engine.daemon import WorkerDaemon
        from repro.engine.jobspec import JobSpec, Workload
        from repro.engine.orchestrator import Orchestrator

        kwargs = dict(m=2, n_tasksets=6, seed=11, step=0.5)
        reference = _strip(run_job(figure2_job(**kwargs)))
        cache_dir = tmp_path / "cache"
        # Warm the cache in-process: same workload, so same task-sets.
        warmup = JobSpec(
            workload=Workload(kind="figure2", **kwargs),
            execution=ExecutionPolicy(
                cache="readwrite", cache_dir=str(cache_dir)
            ),
        )
        assert _strip(run_job(warmup)) == reference

        plan = plan_from_jobspec(warmup)
        killed = {"done": False}

        with tf.TemporaryDirectory(prefix="reprod-", dir="/tmp") as tmp:
            daemons = []
            for index in range(3):
                daemon = WorkerDaemon(Path(tmp) / f"w{index}.sock")
                daemon.serve_in_thread()
                daemons.append(daemon)

            def progress(view):
                if not killed["done"] and any(
                    s.state != "waiting" for s in view.shards
                ):
                    daemons[0].stop()  # socket dies like a SIGKILL
                    killed["done"] = True

            try:
                with DaemonBackend(
                    [d.socket_path for d in daemons]
                ) as backend:
                    outcome = Orchestrator(
                        plan, tmp_path / "orch", backend=backend, shards=2,
                        retries=3, poll_interval=0.05,
                        elastic=True, elastic_after=0.0, progress=progress,
                    ).run()
            finally:
                for daemon in daemons:
                    daemon.stop()
        assert killed["done"]
        assert _strip(outcome.result) == reference
        assert outcome.view.cache_hits > 0
        assert outcome.view.cache_misses == 0  # every verdict pre-warmed


#: Small workloads of the registry-promoted kinds (PR 7), one per kind.
_SENSITIVITY_KWARGS = dict(
    kind="sensitivity", m=2, n_tasksets=4, seed=7, utilization=1.0,
    max_scale=4.0,
)
_SIMULATE_KWARGS = dict(
    kind="simulate", m=2, n_tasksets=4, seed=7, utilization=1.5,
    horizon_factor=2.0,
)
_TIMING_KWARGS = dict(kind="timing", core_counts=(1, 2), n_tasksets=2, seed=7)

_REGISTRY_KINDS = pytest.mark.parametrize(
    "workload_kwargs",
    [_SENSITIVITY_KWARGS, _SIMULATE_KWARGS, _TIMING_KWARGS],
    ids=["sensitivity", "simulate", "timing"],
)


def _registry_job(workload_kwargs, **execution_kwargs):
    from repro.engine.jobspec import ExecutionPolicy, JobSpec, Workload

    return JobSpec(
        workload=Workload(**workload_kwargs),
        execution=ExecutionPolicy(**execution_kwargs),
    )


def _registry_project(kind: str, result):
    """The comparable view of a kind's result.

    Timing rows carry wall-clock seconds, which no two runs reproduce;
    the conformance contract for that kind covers the deterministic
    projection (corpus shape + schedulability verdicts) only.
    """
    if kind == "timing":
        return [(r.m, r.samples, r.positive_answers) for r in result]
    return result


class TestRegistryKindConformance:
    """The standing invariant, for the registry-promoted kinds.

    sensitivity / simulate / timing run through the same JobSpec
    surface as the grid sweeps, so they inherit the same sentence:
    serial == parallel == sharded == orchestrated == daemon-dispatched
    (timing compared on its deterministic projection).
    """

    def _serial(self, workload_kwargs):
        from repro.engine.session import run_job

        return _registry_project(
            workload_kwargs["kind"],
            run_job(_registry_job(workload_kwargs)),
        )

    @_REGISTRY_KINDS
    def test_parallel_executors_identical(self, workload_kwargs):
        from repro.engine.session import run_job

        reference = self._serial(workload_kwargs)
        kind = workload_kwargs["kind"]
        for execution in (dict(jobs=2), dict(jobs=2, chunk_size=2)):
            result = run_job(_registry_job(workload_kwargs, **execution))
            assert _registry_project(kind, result) == reference, execution

    @_REGISTRY_KINDS
    @pytest.mark.parametrize("shard_count", [1, 2, 3])
    def test_sharded_merge_identical(
        self, workload_kwargs, shard_count, tmp_path
    ):
        from repro.engine.registry import merge_artifacts
        from repro.engine.session import run_job
        from repro.engine.shard import load_shard

        reference = self._serial(workload_kwargs)
        kind = workload_kwargs["kind"]
        artifacts = []
        for index in range(shard_count):
            path = tmp_path / f"shard{index}.json"
            run_job(_registry_job(
                workload_kwargs,
                shard=ShardSpec(index, shard_count), shard_out=str(path),
            ))
            artifacts.append(load_shard(path))
        merged = merge_artifacts(artifacts)
        assert _registry_project(kind, merged) == reference

    @_REGISTRY_KINDS
    def test_orchestrated_identical(self, workload_kwargs, tmp_path):
        from repro.engine.orchestrator import Orchestrator

        reference = self._serial(workload_kwargs)
        kind = workload_kwargs["kind"]
        plan = plan_from_jobspec(_registry_job(workload_kwargs))
        outcome = Orchestrator(
            plan, tmp_path / "orch", workers=2, poll_interval=0.05
        ).run()
        assert _registry_project(kind, outcome.result) == reference
        assert outcome.view.done_items == plan.total_items

    @_REGISTRY_KINDS
    def test_daemon_dispatched_identical(self, workload_kwargs, tmp_path):
        import tempfile as tf

        from repro.engine.backends import DaemonBackend
        from repro.engine.daemon import WorkerDaemon
        from repro.engine.orchestrator import Orchestrator

        reference = self._serial(workload_kwargs)
        kind = workload_kwargs["kind"]
        plan = plan_from_jobspec(_registry_job(workload_kwargs))
        with tf.TemporaryDirectory(prefix="reprod-", dir="/tmp") as tmp:
            daemons = []
            for index in range(2):
                daemon = WorkerDaemon(Path(tmp) / f"w{index}.sock")
                daemon.serve_in_thread()
                daemons.append(daemon)
            try:
                with DaemonBackend(
                    [d.socket_path for d in daemons]
                ) as backend:
                    outcome = Orchestrator(
                        plan, tmp_path / "orch", backend=backend,
                        poll_interval=0.05,
                    ).run()
            finally:
                for daemon in daemons:
                    daemon.stop()
        assert _registry_project(kind, outcome.result) == reference
        assert outcome.retries == 0


#: One small workload per registered kind, for the one-engine matrix.
_EVERY_KIND = {
    "figure2": dict(kind="figure2", m=2, n_tasksets=3, seed=11, step=0.5),
    "group2": dict(kind="group2", m=2, n_tasksets=3, seed=11, step=0.5),
    "splitsweep": dict(
        kind="splitsweep", m=2, n_tasksets=4, seed=9, utilization=1.2,
        thresholds=(100.0, 25.0), overhead=0.5,
    ),
    "sensitivity": _SENSITIVITY_KWARGS,
    "simulate": _SIMULATE_KWARGS,
    "timing": _TIMING_KWARGS,
}


def _every_kind_project(kind: str, result):
    """A result minus wall-clock: grid results zero their elapsed time,
    timing keeps its deterministic projection."""
    if isinstance(result, SweepResult):
        return _strip(result)
    return _registry_project(kind, result)


class TestEveryKindOneEngine:
    """Every registered kind runs on the one engine, so every kind gets
    every execution mode: serial == jobs=2 == sharded-then-merged ==
    interrupted-then-resumed == elastically orchestrated."""

    def test_matrix_covers_every_registered_kind(self):
        from repro.engine.registry import workload_kinds

        assert set(_EVERY_KIND) == set(workload_kinds())

    def _serial(self, kind):
        return _every_kind_project(
            kind, run_job(_registry_job(_EVERY_KIND[kind]))
        )

    @pytest.mark.parametrize("kind", sorted(_EVERY_KIND))
    def test_jobs2_identical(self, kind):
        result = run_job(_registry_job(_EVERY_KIND[kind], jobs=2))
        assert _every_kind_project(kind, result) == self._serial(kind)

    @pytest.mark.parametrize("kind", sorted(_EVERY_KIND))
    def test_shards_merge_identical(self, kind, tmp_path):
        paths = []
        for index in range(2):
            path = tmp_path / f"shard{index}.json"
            run_job(_registry_job(
                _EVERY_KIND[kind], shard=ShardSpec(index, 2),
                shard_out=str(path),
            ))
            paths.append(path)
        merged = merge_artifacts(paths)
        assert _every_kind_project(kind, merged) == self._serial(kind)

    @pytest.mark.parametrize("kind", sorted(_EVERY_KIND))
    def test_interrupted_then_resumed_identical(self, kind, tmp_path):
        from repro.engine.checkpoint import load_checkpoint

        checkpoint = tmp_path / "cp.json"
        job = _registry_job(_EVERY_KIND[kind], checkpoint=str(checkpoint))
        with pytest.raises(KeyboardInterrupt):
            SweepEngine(
                executor=_InterruptingExecutor(2),
                checkpoint_path=checkpoint,
                checkpoint_interval=0.0,
            ).run(job.workload.sweep_spec())
        done = load_checkpoint(checkpoint).covered_items()
        assert done == {0, 1}  # two items finished before the kill
        resumed = run_job(job)
        assert _every_kind_project(kind, resumed) == self._serial(kind)

    @pytest.mark.parametrize("kind", sorted(_EVERY_KIND))
    def test_elastic_orchestration_identical(self, kind, tmp_path):
        # 2 shards on 3 slots: the idle slot forces a split at once
        # (elastic_after=0), so sub-shard artifacts build the result.
        from repro.engine.orchestrator import Orchestrator

        plan = plan_from_jobspec(_registry_job(_EVERY_KIND[kind]))
        outcome = Orchestrator(
            plan, tmp_path / "orch", workers=3, shards=2,
            poll_interval=0.05, elastic=True, elastic_after=0.0,
        ).run()
        assert outcome.splits >= 1
        assert _every_kind_project(kind, outcome.result) == self._serial(kind)
