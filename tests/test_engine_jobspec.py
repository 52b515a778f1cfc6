"""The declarative JobSpec: round-trips, strictness, overrides.

The job schema is the contract every tier speaks (CLI flags, job
files, the orchestrator's shard command lines), so these tests pin
it hard: a golden checked-in fixture, exact ``from_json(to_json(s)) ==
s`` round-trips (hypothesis-generated), strict unknown-key /
version-skew / kind-mismatch rejection, and override layering.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.jobspec import (
    JOBSPEC_VERSION,
    WORKLOAD_KINDS,
    ExecutionPolicy,
    JobSpec,
    Workload,
    load_job,
    parse_set_override,
    save_job,
)
from repro.engine.shard import ShardSpec
from repro.exceptions import AnalysisError, JobSpecError

from tests.strategies import job_specs

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "jobs"


def _figure2_job(**execution) -> JobSpec:
    return JobSpec(
        workload=Workload(kind="figure2", m=2, n_tasksets=4, seed=3, step=1.0),
        execution=ExecutionPolicy(**execution),
    )


class TestGoldenFixtures:
    """The checked-in example jobs are the schema's reference forms."""

    @pytest.mark.parametrize("name, kind", [
        ("figure2-small.json", "figure2"),
        ("group2-small.json", "group2"),
        ("splitsweep-small.json", "splitsweep"),
        ("sensitivity-small.json", "sensitivity"),
        ("simulate-small.json", "simulate"),
        ("timing-small.json", "timing"),
    ])
    def test_fixture_loads_and_round_trips(self, name, kind):
        job = load_job(EXAMPLES / name)
        assert job.kind == kind
        assert JobSpec.from_json(job.to_json()) == job
        # The serialised dict matches the file byte-for-byte modulo
        # formatting: the fixture *is* the canonical JSON form.
        assert job.to_json_dict() == json.loads((EXAMPLES / name).read_text())

    def test_figure2_fixture_matches_legacy_spec_identity(self):
        from repro.experiments.figure2 import figure2_spec

        job = load_job(EXAMPLES / "figure2-small.json")
        spec = figure2_spec(m=2, n_tasksets=20, seed=2016, step=0.25)
        assert job.fingerprint() == spec.fingerprint()
        assert job.total_items == spec.total_items


class TestRoundTrip:
    def test_simple_round_trip(self):
        job = _figure2_job(jobs=4, checkpoint="ckpt.json",
                           shard=ShardSpec(1, 3))
        assert JobSpec.from_json(job.to_json()) == job

    def test_file_round_trip(self, tmp_path):
        job = _figure2_job(stream="s.jsonl")
        save_job(tmp_path / "job.json", job)
        assert load_job(tmp_path / "job.json") == job

    @settings(max_examples=60, deadline=None)
    @given(job=job_specs())
    def test_random_specs_round_trip(self, job):
        assert JobSpec.from_json(job.to_json()) == job
        assert JobSpec.from_json(job.to_json(indent=None)) == job

    def test_paths_normalise_to_strings(self, tmp_path):
        job = _figure2_job(checkpoint=tmp_path / "c.json")
        assert isinstance(job.execution.checkpoint, str)
        assert JobSpec.from_json(job.to_json()) == job

    def test_splitsweep_thresholds_normalise_descending(self):
        a = Workload(kind="splitsweep", thresholds=(25.0, 100.0))
        b = Workload(kind="splitsweep", thresholds=(100.0, 25.0))
        assert a == b
        assert a.thresholds == (100.0, 25.0)


class TestStrictness:
    def test_unknown_top_level_key_rejected(self):
        payload = _figure2_job().to_json_dict()
        payload["notes"] = "hi"
        with pytest.raises(JobSpecError, match="notes"):
            JobSpec.from_json_dict(payload)

    def test_unknown_workload_key_rejected(self):
        payload = _figure2_job().to_json_dict()
        payload["workload"]["cores"] = 8
        with pytest.raises(JobSpecError, match="cores"):
            JobSpec.from_json_dict(payload)

    def test_unknown_execution_key_rejected(self):
        payload = _figure2_job().to_json_dict()
        payload["execution"]["nice"] = 10
        with pytest.raises(JobSpecError, match="nice"):
            JobSpec.from_json_dict(payload)

    def test_key_of_other_kind_rejected(self):
        # 'thresholds' is a real field — but not a figure2 field.
        payload = _figure2_job().to_json_dict()
        payload["workload"]["thresholds"] = [10.0]
        with pytest.raises(JobSpecError, match="thresholds"):
            JobSpec.from_json_dict(payload)

    def test_version_skew_rejected(self):
        payload = _figure2_job().to_json_dict()
        payload["version"] = JOBSPEC_VERSION + 1
        with pytest.raises(JobSpecError, match="version"):
            JobSpec.from_json_dict(payload)
        payload.pop("version")
        with pytest.raises(JobSpecError, match="version"):
            JobSpec.from_json_dict(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(JobSpecError, match="kind"):
            JobSpec.from_json_dict({
                "version": JOBSPEC_VERSION,
                "workload": {"kind": "figure3"},
            })
        with pytest.raises(JobSpecError):
            Workload(kind="figure3")

    def test_not_json_rejected(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_json("{ truncated")
        with pytest.raises(JobSpecError):
            JobSpec.from_json("[1, 2]")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(JobSpecError, match="does not exist"):
            load_job(tmp_path / "nope.json")

    def test_splitsweep_accepts_engine_policy(self):
        # Every kind runs on the one engine, so every kind takes the
        # engine's checkpoint, chunk-size and item-subset knobs.
        workload = Workload(kind="splitsweep", m=2, n_tasksets=3)
        job = JobSpec(workload=workload, execution=ExecutionPolicy(
            checkpoint="c.json", chunk_size=4, items=(0, 1),
        ))
        assert JobSpec.from_json(job.to_json()) == job

    def test_group2_rejects_solver_knobs(self):
        with pytest.raises(JobSpecError):
            Workload(kind="group2", mu_method="ilp")

    def test_programmatic_cross_kind_fields_rejected(self):
        # Strictness is symmetric: constructing a Workload with a
        # field of another kind fails exactly like parsing one would.
        with pytest.raises(JobSpecError, match="utilization"):
            Workload(kind="figure2", utilization=3.5)
        with pytest.raises(JobSpecError, match="mu_method"):
            Workload(kind="splitsweep", mu_method="ilp")
        with pytest.raises(JobSpecError, match="step"):
            Workload(kind="splitsweep", step=0.5)

    def test_validation_errors(self):
        with pytest.raises(JobSpecError):
            Workload(kind="figure2", m=0)
        with pytest.raises(JobSpecError):
            Workload(kind="figure2", n_tasksets=0)
        with pytest.raises(JobSpecError):
            Workload(kind="figure2", step=-1.0)
        with pytest.raises(JobSpecError):
            Workload(kind="figure2", mu_method="guess")
        with pytest.raises(JobSpecError):
            Workload(kind="splitsweep", thresholds=())
        with pytest.raises(JobSpecError):
            ExecutionPolicy(jobs=0)
        with pytest.raises(JobSpecError):
            ExecutionPolicy(chunk_size=0)
        with pytest.raises(JobSpecError):
            ExecutionPolicy.from_json_dict({"executor": "gpu"})

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_negative_seed_rejected(self, kind):
        with pytest.raises(JobSpecError, match="seed must be >= 0, got -1"):
            Workload(kind=kind, seed=-1)

    def test_jobspec_error_is_analysis_error(self):
        # Callers catching the historical broad class keep working.
        with pytest.raises(AnalysisError):
            Workload(kind="figure2", m=0)


class TestOverrides:
    def test_dotted_overrides(self):
        job = _figure2_job()
        patched = job.with_overrides(
            {"workload.m": 8, "execution.jobs": 4}
        )
        assert patched.workload.m == 8
        assert patched.execution.jobs == 4
        # The original is untouched (immutability).
        assert job.workload.m == 2

    def test_bare_names_resolve_to_their_section(self):
        patched = _figure2_job().with_overrides({"m": 8, "jobs": 4})
        assert patched.workload.m == 8
        assert patched.execution.jobs == 4

    def test_string_values_coerce(self):
        patched = _figure2_job().with_overrides({
            "workload.m": "8",
            "workload.step": "0.5",
            "execution.shard": "2/4",
            "execution.items": "9,1,5",
            "execution.chunk_size": "none",
        })
        assert patched.workload.m == 8
        assert patched.workload.step == 0.5
        assert patched.execution.shard == ShardSpec(1, 4)
        assert patched.execution.items == (1, 5, 9)
        assert patched.execution.chunk_size is None

    def test_override_round_trips(self):
        patched = _figure2_job().with_overrides({"workload.seed": 7})
        assert JobSpec.from_json(patched.to_json()) == patched

    def test_unknown_override_rejected(self):
        with pytest.raises(JobSpecError, match="no job spec field"):
            _figure2_job().with_overrides({"turbo": "on"})
        with pytest.raises(JobSpecError, match="no field"):
            _figure2_job().with_overrides({"workload.turbo": "on"})
        with pytest.raises(JobSpecError, match="section"):
            _figure2_job().with_overrides({"deploy.m": "3"})

    def test_override_still_validated(self):
        with pytest.raises(JobSpecError):
            _figure2_job().with_overrides({"workload.m": "0"})

    def test_parse_set_override(self):
        assert parse_set_override("workload.m=8") == ("workload.m", "8")
        assert parse_set_override("stream=a=b.jsonl") == ("stream", "a=b.jsonl")
        with pytest.raises(JobSpecError):
            parse_set_override("no-equals-sign")
        with pytest.raises(JobSpecError):
            parse_set_override("=value")


class TestWorkloadSemantics:
    def test_defaults_resolve_per_kind(self):
        assert Workload(kind="figure2").n_tasksets == 300
        assert Workload(kind="group2").n_tasksets == 300
        assert Workload(kind="splitsweep").n_tasksets == 30
        assert Workload(kind="splitsweep").thresholds == (
            1000.0, 100.0, 50.0, 25.0, 10.0, 5.0,
        )

    def test_fingerprints_match_experiment_specs(self):
        from repro.core.analyzer import AnalysisMethod
        from repro.experiments.group2 import group2_spec
        from repro.experiments.splitsweep import split_sweep_fingerprint
        from repro.generator.profiles import GROUP1

        workload = Workload(kind="group2", m=2, n_tasksets=4, seed=11, step=0.5)
        assert workload.fingerprint() == group2_spec(
            m=2, n_tasksets=4, seed=11, step=0.5
        ).fingerprint()

        workload = Workload(
            kind="splitsweep", m=2, utilization=1.2,
            thresholds=(100.0, 25.0), n_tasksets=5, seed=9,
        )
        assert workload.fingerprint() == split_sweep_fingerprint(
            2, 1.2, (100.0, 25.0), 5, 9, GROUP1,
            AnalysisMethod.LP_ILP, 0.0,
        )

    def test_fingerprint_ignores_execution(self):
        job = _figure2_job()
        assert job.fingerprint() == replace(
            job, execution=ExecutionPolicy(jobs=16, shard=ShardSpec(0, 2))
        ).fingerprint()

    def test_every_kind_has_a_sweep_spec(self):
        for kind in WORKLOAD_KINDS:
            workload = Workload(kind=kind)
            sweep = workload.sweep_spec()
            assert sweep.fingerprint() == workload.fingerprint()
            assert sweep.total_items == workload.total_items

    def test_for_worker_strips_placement(self):
        job = _figure2_job(
            jobs=3, checkpoint="c.json", stream="s.jsonl",
            shard_out="a.json", shard=ShardSpec(0, 2), items=(0, 2),
        )
        worker = job.for_worker()
        assert worker.execution.jobs == 3
        assert worker.execution.checkpoint is None
        assert worker.execution.stream is None
        assert worker.execution.shard_out is None
        assert worker.execution.shard is None
        assert worker.execution.items is None


class TestNonFiniteInputs:
    """Every non-finite float, non-positive threshold and failed int
    coercion is a JobSpecError at construction or parse time.

    These workloads are only built, never run: an infinite utilisation,
    horizon or utilisation factor would never terminate.
    """

    INF, NAN = float("inf"), float("nan")

    @pytest.mark.parametrize("fields", [
        dict(kind="splitsweep", utilization=INF),
        dict(kind="simulate", horizon_factor=INF),
        dict(kind="timing", utilization_factor=INF),
        dict(kind="sensitivity", max_scale=INF),
        dict(kind="figure2", step=NAN),
        dict(kind="group2", step=INF),
        dict(kind="splitsweep", overhead=NAN),
        dict(kind="splitsweep", thresholds=(0.0,)),
        dict(kind="splitsweep", thresholds=(100.0, -5.0)),
        dict(kind="splitsweep", thresholds=(NAN,)),
        dict(kind="splitsweep", thresholds=(INF, 10.0)),
    ], ids=lambda fields: "-".join(f"{k}={v}" for k, v in fields.items()))
    def test_constructed_workload_rejected(self, fields):
        with pytest.raises(JobSpecError):
            Workload(**fields)

    @pytest.mark.parametrize("workload", [
        '{"kind": "splitsweep", "utilization": Infinity}',
        '{"kind": "simulate", "horizon_factor": Infinity}',
        '{"kind": "timing", "utilization_factor": Infinity}',
        '{"kind": "sensitivity", "max_scale": Infinity}',
        '{"kind": "figure2", "m": Infinity}',
        '{"kind": "figure2", "step": NaN}',
        '{"kind": "timing", "core_counts": [4, Infinity]}',
        '{"kind": "splitsweep", "thresholds": [100, NaN]}',
        '{"kind": "splitsweep", "overhead": NaN}',
    ])
    def test_parsed_workload_rejected(self, workload):
        with pytest.raises(JobSpecError):
            JobSpec.from_json(f'{{"version": 1, "workload": {workload}}}')

    def test_parsed_execution_int_overflow_rejected(self):
        with pytest.raises(JobSpecError, match="malformed execution"):
            JobSpec.from_json(
                '{"version": 1, "workload": {"kind": "figure2"}, '
                '"execution": {"jobs": Infinity}}'
            )

    @pytest.mark.parametrize("override", [
        "workload.step=nan", "workload.step=inf", "workload.m=inf",
    ])
    def test_override_rejected(self, override):
        job = _figure2_job()
        with pytest.raises(JobSpecError):
            job.with_overrides(dict([parse_set_override(override)]))


class TestJsonValueTypes:
    """A job file's value must already have its field's JSON type.

    Nothing is truncated or coerced: 2.7 is no core count, ``true`` is
    no seed, ``"false"`` is no boolean.  Each refusal is one
    ``JobSpecError`` line naming the key.
    """

    @staticmethod
    def _refused(section: str, key: str, payload: dict) -> None:
        with pytest.raises(JobSpecError, match=rf"malformed {section}\.{key}\b") as info:
            JobSpec.from_json(json.dumps(payload))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("kind, key, value", [
        ("figure2", "m", 2.7),
        ("figure2", "m", True),
        ("figure2", "m", "2"),
        ("figure2", "n_tasksets", 20.0),
        ("figure2", "n_tasksets", "20"),
        ("figure2", "seed", 2016.9),
        ("figure2", "seed", False),
        ("figure2", "seed", "2016"),
        ("timing", "core_counts", [4, 8.5]),
        ("timing", "core_counts", [4, True]),
        ("timing", "core_counts", ["4"]),
        ("figure2", "step", "0.25"),
        ("figure2", "step", True),
        ("splitsweep", "utilization", "1.75"),
        ("splitsweep", "overhead", False),
        ("splitsweep", "thresholds", [100.0, "25"]),
        ("splitsweep", "thresholds", [True]),
        ("sensitivity", "max_scale", "8"),
        ("simulate", "horizon_factor", True),
        ("timing", "utilization_factor", "0.5"),
        ("figure2", "mu_method", 5),
        ("figure2", "rho_solver", ["ilp"]),
    ])
    def test_workload_value_of_wrong_type_refused(self, kind, key, value):
        self._refused("workload", key, {
            "version": JOBSPEC_VERSION,
            "workload": {"kind": kind, key: value},
        })

    @pytest.mark.parametrize("key, value", [
        ("jobs", 1.9),
        ("jobs", True),
        ("jobs", "2"),
        ("chunk_size", 3.0),
        ("chunk_size", "3"),
        ("items", [0, 1.5]),
        ("items", [True]),
        ("items", ["1"]),
        ("publish", "false"),
        ("publish", 0),
        ("publish", 1),
        ("checkpoint", 5),
        ("stream", ["s.jsonl"]),
        ("cache", True),
    ])
    def test_execution_value_of_wrong_type_refused(self, key, value):
        self._refused("execution", key, {
            "version": JOBSPEC_VERSION,
            "workload": {"kind": "figure2"},
            "execution": {key: value},
        })


class TestExecutorField:
    """Job files written while a thread pool existed carry an
    ``execution.executor`` key; ``"process"`` and ``null`` still load."""

    @staticmethod
    def _with_executor(value):
        payload = _figure2_job().to_json_dict()
        payload["execution"]["executor"] = value
        return payload

    @pytest.mark.parametrize("value", ["process", None])
    def test_legacy_value_is_dropped(self, value):
        job = JobSpec.from_json_dict(self._with_executor(value))
        assert job == _figure2_job()
        assert "executor" not in job.to_json_dict()["execution"]
        assert job.fingerprint() == _figure2_job().fingerprint()

    def test_thread_executor_is_a_removed_policy(self):
        with pytest.raises(JobSpecError, match="thread executor was removed") as info:
            JobSpec.from_json_dict(self._with_executor("thread"))
        assert "\n" not in str(info.value)

    def test_executor_is_no_longer_a_field(self):
        with pytest.raises(TypeError):
            ExecutionPolicy(executor="process")
        with pytest.raises(JobSpecError, match="no field 'executor'"):
            _figure2_job().with_overrides({"execution.executor": "process"})

    def test_parent_orchestration_work_order_still_loads(self):
        # The JobSpec JSON a work order of an older orchestration
        # directory embeds (sweep-run --job-json '<spec>').
        payload = _figure2_job(jobs=2, chunk_size=3).to_json_dict()
        payload["execution"] = {"executor": "process", **payload["execution"]}
        job = JobSpec.from_json(json.dumps(payload))
        assert job == _figure2_job(jobs=2, chunk_size=3)


class TestPlacement:
    """Job files written while cache-aware placement existed carry an
    ``execution.placement`` key; the strided value still loads."""

    @staticmethod
    def _with_placement(value):
        payload = _figure2_job().to_json_dict()
        payload["execution"]["placement"] = value
        return payload

    def test_round_trips(self):
        job = JobSpec.from_json_dict(self._with_placement("strided"))
        assert job == _figure2_job()
        assert "placement" not in job.to_json_dict()["execution"]
        assert JobSpec.from_json(job.to_json()) == job

    def test_absent_placement_defaults_to_strided(self):
        payload = _figure2_job().to_json_dict()
        assert "placement" not in payload["execution"]
        assert (JobSpec.from_json_dict(payload)
                == JobSpec.from_json_dict(self._with_placement(None))
                == JobSpec.from_json_dict(self._with_placement("strided")))

    def test_unknown_placement_rejected(self):
        with pytest.raises(JobSpecError, match="placement"):
            JobSpec.from_json_dict(self._with_placement("affine"))

    def test_cache_aware_placement_is_a_removed_policy(self):
        with pytest.raises(JobSpecError, match="cache-aware placement was removed") as info:
            JobSpec.from_json_dict(self._with_placement("cache-aware"))
        assert "\n" not in str(info.value)

    def test_fingerprint_ignores_placement(self):
        assert (JobSpec.from_json_dict(self._with_placement("strided")).fingerprint()
                == _figure2_job().fingerprint())

    def test_placement_is_no_longer_a_field(self):
        with pytest.raises(TypeError):
            ExecutionPolicy(placement="strided")
        with pytest.raises(JobSpecError, match="no field 'placement'"):
            _figure2_job().with_overrides({"execution.placement": "strided"})


#: Typed override values of every JSON shape, a few of the wrong one
#: for each field, plus strings the ``--set`` parsers accept.
_OVERRIDE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2**40),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from([
        "figure2", "splitsweep", "search", "ilp", "assignment", "off",
        "read", "readwrite", "1/2", "2/3", "0,4,2", "none", "8", "0.5",
        "true",
    ]),
    st.builds(lambda i: ShardSpec(i, 4), st.integers(0, 3)),
    st.lists(
        st.one_of(st.integers(-1, 64), st.floats(0, 100), st.booleans(),
                  st.text(max_size=2)),
        max_size=4,
    ),
    st.lists(st.integers(0, 64), min_size=1, max_size=4).map(tuple),
)
_OVERRIDE_KEYS = st.sampled_from(
    [f"workload.{key}" for key in (
        "kind", "m", "n_tasksets", "seed", "step", "mu_method",
        "rho_solver", "utilization", "thresholds", "overhead",
        "core_counts", "max_scale", "horizon_factor", "utilization_factor",
    )]
    + [f"execution.{key}" for key in (
        "jobs", "chunk_size", "checkpoint", "stream", "shard_out", "shard",
        "items", "cache", "cache_dir", "publish", "store_dir",
    )]
)


class TestTypedValues:
    """A value set in code obeys the job-file rules: the constructors
    refuse what ``from_json`` would refuse, so every spec that can be
    built can also be written and read back."""

    @pytest.mark.parametrize("key, value", [
        ("workload.m", 2.7),
        ("workload.m", True),
        ("workload.seed", 7.0),
        ("workload.n_tasksets", 20.0),
        ("workload.step", True),
        ("workload.mu_method", 5),
        ("execution.jobs", 1.5),
        ("execution.jobs", True),
        ("execution.chunk_size", 2.0),
        ("execution.items", (0, 1.5)),
        ("execution.items", (True,)),
        ("execution.items", 3),
        ("execution.publish", 1),
        ("execution.cache", None),
        ("execution.shard", (1, 4)),
        ("execution.checkpoint", 5),
    ])
    def test_override_of_wrong_type_refused(self, key, value):
        with pytest.raises(JobSpecError, match=rf"malformed {key}\b") as info:
            _figure2_job().with_overrides({key: value})
        assert "\n" not in str(info.value)

    def test_constructor_refuses_instead_of_truncating(self):
        with pytest.raises(JobSpecError, match=r"malformed execution\.items\[0\]"):
            ExecutionPolicy(items=(1.9,))
        with pytest.raises(JobSpecError, match=r"malformed workload\.m\b"):
            Workload(kind="figure2", m=2.7)
        with pytest.raises(JobSpecError, match=r"malformed workload\.thresholds\[1\]"):
            Workload(kind="splitsweep", thresholds=(10.0, "5"))

    def test_numbers_widen_to_float_as_in_a_file(self):
        workload = Workload(kind="splitsweep", utilization=2, thresholds=(50, 25))
        assert type(workload.utilization) is float
        assert all(type(t) is float for t in workload.thresholds)
        assert workload == JobSpec.from_json(JobSpec(workload).to_json()).workload

    @settings(max_examples=300, deadline=None)
    @given(job=job_specs(), overrides=st.dictionaries(
        _OVERRIDE_KEYS, _OVERRIDE_VALUES, min_size=1, max_size=3,
    ))
    def test_every_accepted_override_round_trips(self, job, overrides):
        try:
            patched = job.with_overrides(overrides)
        except JobSpecError as exc:
            assert "\n" not in str(exc)
            return
        text = patched.to_json()
        again = JobSpec.from_json(text)
        assert again == patched
        assert again.to_json() == text
