"""Unit tests of the declarative serving-config layer (repro.serving.config).

Covers strict construction-time validation, the versioned JSON round trip
(property-based: any constructible config survives to_dict/from_dict
unchanged), the flat-override derivation used by the CLI, the
config/overrides/embedded precedence rule, and environment resolution into a
ServingPlan under both the strict and the degrade policy.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.serving import (
    ArtifactOptions,
    ServingConfig,
    ServingPlan,
    ServingStats,
    ShardingSpec,
    effective_config,
    usable_workers,
)
from repro.serving.backends import SerialBackend
from repro.serving.config import CONFIG_VERSION
from repro.serving.remote import RemoteBackend


# --------------------------------------------------------------------------- #
# construction + validation
# --------------------------------------------------------------------------- #
class TestValidation:
    def test_default_config_is_unsharded_float64(self):
        config = ServingConfig()
        assert not hasattr(config, "dtype")
        assert config.engine is None
        assert not hasattr(config, "provider")
        assert not config.sharding.enabled
        assert not hasattr(config.artifact, "mmap")  # sidecars are always mapped
        assert config.artifact.verify is False

    def test_config_has_three_fields(self):
        assert [f.name for f in fields(ServingConfig)] == ["engine", "sharding", "artifact"]

    @pytest.mark.parametrize("dtype", ["float64", "float32", "<f4", "double"])
    def test_parent_format_dtype_reads_as_float64(self, dtype):
        # Payloads written while float32 serving existed name a dtype; the
        # stored arrays were float64 either way.
        payload = {**_parent_payload(shards=None), "dtype": dtype}
        assert ServingConfig.from_dict(json.loads(json.dumps(payload))) == ServingConfig()

    def test_unsupported_dtype_rejected(self):
        payload = _parent_payload(shards=None)
        for dtype in ("int32", "float16"):
            with pytest.raises(ConfigurationError, match="unsupported serving dtype"):
                ServingConfig.from_dict({**payload, "dtype": dtype})
        with pytest.raises(ConfigurationError, match="invalid serving dtype"):
            ServingConfig.from_dict({**payload, "dtype": "not-a-dtype"})

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(engine="cuda")

    def test_unknown_provider_rejected(self):
        payload = {**ServingConfig().to_dict(), "provider": "mkl"}
        with pytest.raises(ConfigurationError, match="unknown fused provider"):
            ServingConfig.from_dict(payload)

    def test_workers_without_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="only apply to sharded serving"):
            ServingConfig.from_dict(_parent_payload(shards=None, workers=4))

    def test_backend_without_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="only apply to sharded serving"):
            ServingConfig.from_dict(_parent_payload(shards=None, backend="thread"))

    def test_remote_workers_without_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="only apply to sharded serving"):
            ShardingSpec(remote_workers="h:1")

    def test_spec_has_no_backend_or_worker_fields(self):
        assert [f.name for f in fields(ShardingSpec)] == ["shards", "remote_workers"]

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="n_shards must be >= 1"):
            ShardingSpec(shards=0)

    def test_remote_workers_with_local_backend_rejected(self):
        payload = _parent_payload(backend="thread", remote_workers="h:1")
        with pytest.raises(ConfigurationError, match="remote_workers conflicts"):
            ServingConfig.from_dict(payload)

    def test_remote_backend_without_addresses_rejected(self):
        with pytest.raises(ConfigurationError, match="needs worker addresses"):
            ServingConfig.from_dict(_parent_payload(backend="remote"))

    def test_remote_workers_with_worker_count_rejected(self):
        payload = _parent_payload(remote_workers="h:1", workers=3)
        with pytest.raises(ConfigurationError, match="address list"):
            ServingConfig.from_dict(payload)

    def test_remote_workers_imply_remote_backend(self):
        spec = ShardingSpec(shards=2, remote_workers="localhost:9001")
        assert ServingConfig(sharding=spec).resolve().backend == "remote"

    def test_remote_workers_are_canonicalised(self):
        spec = ShardingSpec(shards=2, remote_workers=" a:1 , b:2 ,")
        assert spec.remote_workers == "a:1,b:2"

    def test_provisioning_without_remote_backend_rejected(self):
        for mode in ("reference", "value"):
            with pytest.raises(ConfigurationError, match="provisioning only applies"):
                ServingConfig.from_dict(_parent_payload(provisioning=mode))

    @pytest.mark.parametrize("mode", ["quantum", "Auto", "", None])
    def test_parent_format_unknown_provisioning_rejected(self, mode):
        payload = _parent_payload(remote_workers="a:1", provisioning=mode)
        with pytest.raises(ConfigurationError, match="unknown provisioning mode"):
            ServingConfig.from_dict(payload)

    @pytest.mark.parametrize("mode", ["auto", "reference", "value"])
    def test_parent_format_provisioning_reads_as_one_policy(self, mode):
        payload = _parent_payload(remote_workers="a:1,b:2", provisioning=mode)
        config = ServingConfig.from_dict(json.loads(json.dumps(payload)))
        assert config == ServingConfig(
            sharding=ShardingSpec(shards=3, remote_workers="a:1,b:2")
        )
        assert "provisioning" not in config.to_dict()["sharding"]
        assert "provisioning" not in config.resolve().to_dict()

    def test_sharding_must_be_a_spec(self):
        with pytest.raises(ConfigurationError, match="must be a ShardingSpec"):
            ServingConfig(sharding={"shards": 2})

    def test_artifact_must_be_options(self):
        with pytest.raises(ConfigurationError, match="must be ArtifactOptions"):
            ServingConfig(artifact={"verify": False})

    @pytest.mark.parametrize("mmap", [True, False])
    def test_parent_format_mmap_flag_is_ignored(self, mmap):
        # Payloads written while in-RAM sidecar loading existed carry an
        # mmap flag; every sidecar is mapped now, so it reads as nothing.
        payload = {**_parent_payload(shards=None), "artifact": {"mmap": mmap, "verify": True}}
        config = ServingConfig.from_dict(json.loads(json.dumps(payload)))
        assert config == ServingConfig(artifact=ArtifactOptions(verify=True))
        assert config.to_dict()["artifact"] == {"verify": True}
        assert "mmap" not in config.resolve().to_dict()


# --------------------------------------------------------------------------- #
# JSON round trip
# --------------------------------------------------------------------------- #
def _parent_payload(shards=3, **sharding) -> dict:
    """A serving-config payload as a writer with ``backend``/``workers`` wrote it."""
    return {
        "config_version": 1,
        "dtype": "float64",
        "engine": None,
        "sharding": {
            "shards": shards,
            "workers": None,
            "backend": None,
            "remote_workers": None,
            "provisioning": "auto",
            **sharding,
        },
        "artifact": {"mmap": True, "verify": False},
    }


def _configs() -> st.SearchStrategy[ServingConfig]:
    """Any constructible ServingConfig (validation-consistent by design)."""
    local = st.builds(
        ShardingSpec,
        shards=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    )
    remote = st.builds(
        ShardingSpec,
        shards=st.integers(min_value=1, max_value=64),
        remote_workers=st.lists(
            st.integers(min_value=1, max_value=65535), min_size=1, max_size=4
        ).map(lambda ports: ",".join(f"worker{i}:{p}" for i, p in enumerate(ports))),
    )
    return st.builds(
        ServingConfig,
        engine=st.sampled_from([None, "numpy", "fused", "auto"]),
        sharding=st.one_of(local, remote),
        artifact=st.builds(ArtifactOptions, verify=st.booleans()),
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(config=_configs())
    def test_to_dict_from_dict_identity(self, config):
        payload = config.to_dict()
        assert payload["config_version"] == CONFIG_VERSION
        assert ServingConfig.from_dict(payload) == config

    @settings(max_examples=100, deadline=None)
    @given(config=_configs())
    def test_payload_is_json_compatible(self, config):
        assert ServingConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    @pytest.mark.parametrize("provider", [None, "cc"])
    def test_parent_format_provider_key_is_ignored(self, provider):
        config = ServingConfig(engine="auto")
        assert "provider" not in config.to_dict()
        payload = {**config.to_dict(), "provider": provider}
        assert ServingConfig.from_dict(payload) == config

    @pytest.mark.parametrize("engine", [None, "numpy", "fused", "auto"])
    def test_parent_format_provider_none_reads_as_numpy(self, engine):
        payload = {**ServingConfig(engine=engine).to_dict(), "provider": "none"}
        assert ServingConfig.from_dict(payload) == ServingConfig(engine="numpy")

    def test_payload_carries_no_dtype(self):
        assert "dtype" not in ServingConfig().to_dict()

    def test_payload_carries_no_backend_or_workers(self):
        payload = ServingConfig(sharding=ShardingSpec(shards=3)).to_dict()
        assert set(payload["sharding"]) == {"shards", "remote_workers"}

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_parent_format_local_backend_reads_as_serial(self, backend, workers):
        payload = _parent_payload(backend=backend, workers=workers)
        config = ServingConfig.from_dict(json.loads(json.dumps(payload)))
        assert config == ServingConfig(sharding=ShardingSpec(shards=3))
        plan = config.resolve()
        assert (plan.n_shards, plan.backend, plan.workers) == (3, "serial", 1)

    def test_parent_format_remote_backend_reads_as_remote(self):
        payload = _parent_payload(backend="remote", remote_workers="a:1,b:2")
        config = ServingConfig.from_dict(payload)
        assert config.sharding == ShardingSpec(shards=3, remote_workers="a:1,b:2")
        plan = config.resolve()
        assert (plan.n_shards, plan.backend, plan.workers) == (3, "remote", 2)

    @pytest.mark.parametrize("backend", ["quantum", "Thread", ""])
    def test_parent_format_unknown_backend_rejected(self, backend):
        with pytest.raises(ConfigurationError, match="unknown shard backend"):
            ServingConfig.from_dict(_parent_payload(backend=backend))

    @pytest.mark.parametrize(
        "section, values",
        [
            ("sharding", {"shards": 2.7}),
            ("sharding", {"shards": True}),
            ("sharding", {"shards": "2"}),
            ("sharding", {"shards": 2, "workers": True}),
            ("sharding", {"shards": 2, "workers": 1.5}),
            ("artifact", {"mmap": "false"}),
            ("artifact", {"verify": "no"}),
            ("artifact", {"mmap": 0}),
        ],
        ids=[
            "shards-fraction",
            "shards-bool",
            "shards-str",
            "workers-bool",
            "workers-fraction",
            "mmap-str",
            "verify-str",
            "mmap-int",
        ],
    )
    def test_mistyped_payload_values_rejected(self, section, values):
        payload = ServingConfig().to_dict()
        payload[section] = {**payload[section], **values}
        with pytest.raises(ConfigurationError, match="expected an integer|must be a bool"):
            ServingConfig.from_dict(payload)

    def test_whole_number_float_counts_are_accepted(self):
        payload = ServingConfig().to_dict()
        payload["sharding"] = {**payload["sharding"], "shards": 3.0, "workers": 2.0}
        config = ServingConfig.from_dict(payload)
        assert config.sharding == ShardingSpec(shards=3)

    def test_wrong_version_rejected(self):
        payload = ServingConfig().to_dict()
        payload["config_version"] = CONFIG_VERSION + 1
        with pytest.raises(ConfigurationError, match="unsupported serving-config version"):
            ServingConfig.from_dict(payload)

    def test_unknown_top_level_key_rejected(self):
        payload = ServingConfig().to_dict()
        payload["threads"] = 4
        with pytest.raises(ConfigurationError, match=r"unknown keys \['threads'\]"):
            ServingConfig.from_dict(payload)

    def test_unknown_sharding_key_rejected(self):
        payload = ServingConfig().to_dict()
        payload["sharding"]["n_shards"] = 4
        with pytest.raises(ConfigurationError, match="sharding spec has unknown keys"):
            ServingConfig.from_dict(payload)

    def test_unknown_artifact_key_rejected(self):
        payload = ServingConfig().to_dict()
        payload["artifact"]["lazy"] = True
        with pytest.raises(ConfigurationError, match="artifact options have unknown keys"):
            ServingConfig.from_dict(payload)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            ServingConfig.from_dict([1, 2, 3])


# --------------------------------------------------------------------------- #
# overrides + precedence
# --------------------------------------------------------------------------- #
class TestOverrides:
    def test_top_level_overrides(self):
        config = ServingConfig().with_overrides({"engine": "auto"})
        assert config.engine == "auto"

    def test_any_sharding_key_replaces_the_whole_spec(self):
        base = ServingConfig(
            sharding=ShardingSpec(shards=4, remote_workers="a:1,b:2")
        )
        overridden = base.with_overrides({"shards": 2})
        # --shards 2 must not inherit the stale remote address list.
        assert overridden.sharding == ShardingSpec(shards=2)

    def test_artifact_override_keeps_other_fields(self):
        base = ServingConfig(engine="numpy", artifact=ArtifactOptions(verify=True))
        assert base.with_overrides({"verify": False}) == ServingConfig(engine="numpy")

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown serving config overrides"):
            ServingConfig().with_overrides({"threads": 8})

    def test_override_validation_matches_construction(self):
        with pytest.raises(ConfigurationError, match="only apply to sharded serving"):
            ServingConfig().with_overrides({"remote_workers": "h:1"})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 2},
            {"backend": "thread"},
            {"shards": 2, "workers": 2},
            {"dtype": "float64"},
            {"dtype": "float32", "engine": "auto"},
            {"provisioning": "auto"},
            {"shards": 2, "remote_workers": "a:1", "provisioning": "value"},
            {"mmap": False},
            {"mmap": True, "verify": True},
        ],
    )
    def test_removed_knob_overrides_rejected(self, overrides):
        knob = next(
            k
            for k in ("workers", "backend", "dtype", "provisioning", "mmap")
            if k in overrides
        )
        with pytest.raises(ConfigurationError, match=f"override '{knob}' was removed"):
            ServingConfig().with_overrides(overrides)


class TestEffectiveConfig:
    def test_default_when_nothing_given(self):
        assert effective_config() == ServingConfig()

    def test_full_config_wins_over_embedded(self):
        embedded = ServingConfig(engine="auto").to_dict()
        config = ServingConfig(engine="numpy")
        assert effective_config(config=config, embedded=embedded) == config

    def test_config_plus_overrides_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            effective_config(config=ServingConfig(), overrides={"engine": "auto"})

    def test_overrides_apply_on_top_of_embedded(self):
        embedded = ServingConfig(
            engine="numpy", artifact=ArtifactOptions(verify=True)
        ).to_dict()
        result = effective_config(overrides={"engine": "auto"}, embedded=embedded)
        assert result.engine == "auto"
        assert result.artifact.verify is True  # untouched embedded field survives

    def test_non_config_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a ServingConfig"):
            effective_config(config={"engine": "numpy"})


# --------------------------------------------------------------------------- #
# resolution into a plan
# --------------------------------------------------------------------------- #
class TestResolve:
    def test_numpy_resolves_to_numpy(self):
        plan = ServingConfig(engine="numpy").resolve()
        assert plan.engine == "numpy"
        assert plan.engine_requested == "numpy"
        assert not plan.sharded

    def test_default_engine_request_is_recorded(self):
        from repro.core import kernels

        plan = ServingConfig().resolve()
        assert plan.engine_requested == kernels.DEFAULT_ENGINE

    def test_missing_kernel_disables_fused(self, compilerless_host):
        plan = ServingConfig(engine="auto").resolve()
        assert plan.engine == "numpy"

    def test_strict_fused_without_kernel_raises(self, compilerless_host):
        with pytest.raises(ConfigurationError, match="fused engine is unavailable") as excinfo:
            ServingConfig(engine="fused").resolve(strict=True)
        assert compilerless_host in str(excinfo.value)

    def test_degrade_policy_never_raises(self, compilerless_host):
        plan = ServingConfig(engine="fused").resolve(strict=False)
        assert plan.engine == "numpy"

    def test_auto_degrades_even_under_strict(self):
        # "auto" is a preference, not a demand: it resolves on every host.
        plan = ServingConfig(engine="auto").resolve(strict=True)
        assert plan.engine in ("numpy", "fused")

    def test_unsharded_plan_has_no_backend(self):
        plan = ServingConfig().resolve()
        assert plan.n_shards is None
        assert plan.backend is None
        assert plan.workers is None
        assert plan.build_backend() is None

    def test_serial_backend_pins_one_worker(self):
        plan = ServingConfig(sharding=ShardingSpec(shards=3)).resolve()
        assert plan.backend == "serial"
        assert plan.workers == 1
        backend = plan.build_backend()
        assert isinstance(backend, SerialBackend)

    def test_remote_worker_count_is_the_address_list(self):
        plan = ServingConfig(
            sharding=ShardingSpec(shards=4, remote_workers="a:1,b:2,c:3")
        ).resolve()
        assert plan.backend == "remote"
        assert plan.workers == 3
        assert plan.remote_workers == ("a:1", "b:2", "c:3")
        backend = plan.build_backend()
        assert isinstance(backend, RemoteBackend)
        assert backend.workers == 3

    def test_plan_to_dict_is_json_compatible(self):
        plan = ServingConfig(sharding=ShardingSpec(shards=2)).resolve()
        payload = json.loads(json.dumps(plan.to_dict()))
        assert payload["n_shards"] == 2
        assert payload["sharded"] is True
        assert "dtype" not in payload
        assert "provider" not in payload

    def test_describe_adds_host_diagnostics(self):
        description = ServingConfig().resolve().describe()
        assert description["usable_cores"] == usable_workers()
        assert "default_engine" in description

    @settings(max_examples=100, deadline=None)
    @given(config=_configs())
    def test_every_config_resolves_under_the_degrade_policy(self, config):
        plan = config.resolve(strict=False)
        assert isinstance(plan, ServingPlan)
        assert plan.engine in ("numpy", "fused")
        assert plan.config == config
        if config.sharding.enabled:
            assert plan.workers >= 1
        else:
            assert plan.backend is None


# --------------------------------------------------------------------------- #
# stats
# --------------------------------------------------------------------------- #
class TestServingStats:
    def test_to_dict_round_trips_fields(self):
        stats = ServingStats(
            n_records=10,
            engine="numpy",
            sharded=False,
            ingest_s=0.001,
            route_s=0.0,
            descend_s=0.002,
            merge_s=0.0005,
            total_s=0.004,
            plan={"engine": "numpy"},
        )
        payload = stats.to_dict()
        assert payload["n_records"] == 10
        assert payload["plan"] == {"engine": "numpy"}
        assert set(payload) == {
            "n_records",
            "engine",
            "sharded",
            "ingest_s",
            "route_s",
            "descend_s",
            "merge_s",
            "total_s",
            "plan",
        }
