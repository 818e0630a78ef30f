"""Unit tests of the declarative serving-config layer (repro.serving.config).

Covers strict construction-time validation, the versioned JSON round trip
(property-based: any constructible config survives to_dict/from_dict
unchanged), the flat-override derivation used by the CLI, the
config/overrides/embedded precedence rule, the reading of payloads written
while the compute engine was a setting, and the backend and provenance a
config gives on this host.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.exceptions import ConfigurationError
from repro.serving import ServingConfig, effective_config, usable_workers
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
        assert not hasattr(config, "engine")
        assert not hasattr(config, "provider")
        assert config.shards is None
        assert not hasattr(config, "mmap")  # sidecars are always mapped
        assert config.verify is False

    def test_config_has_three_fields(self):
        names = [f.name for f in fields(ServingConfig)]
        assert names == ["shards", "remote_workers", "verify"]

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
        payload = {**ServingConfig().to_dict(), "engine": "cuda"}
        with pytest.raises(ConfigurationError, match="unknown compute engine 'cuda'"):
            ServingConfig.from_dict(payload)

    def test_engine_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError, match="engine"):
            ServingConfig(engine="numpy")

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
            ServingConfig(remote_workers="h:1")

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="n_shards must be >= 1"):
            ServingConfig(shards=0)

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
        config = ServingConfig(shards=2, remote_workers="localhost:9001")
        assert config.provenance()["backend"] == "remote"

    def test_remote_workers_are_canonicalised(self):
        config = ServingConfig(shards=2, remote_workers=" a:1 , b:2 ,")
        assert config.remote_workers == "a:1,b:2"

    def test_ipv6_addresses_keep_their_brackets(self):
        config = ServingConfig(shards=2, remote_workers="[::1]:9000, a:1")
        assert config.remote_workers == "[::1]:9000,a:1"
        assert ServingConfig.from_dict(config.to_dict()) == config
        assert config.provenance()["remote_workers"] == ["[::1]:9000", "a:1"]
        backend = config.build_backend()
        assert backend.addresses == (("::1", 9000), ("a", 1))
        backend.close()

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
        assert config == ServingConfig(shards=3, remote_workers="a:1,b:2")
        assert "provisioning" not in config.to_dict()["sharding"]
        assert "provisioning" not in config.provenance()

    @pytest.mark.parametrize("section", ["sharding", "artifact"])
    def test_payload_sections_are_not_constructor_arguments(self, section):
        # The payload nests its fields in two sections; the config is flat.
        with pytest.raises(TypeError, match=section):
            ServingConfig(**{section: {}})

    @pytest.mark.parametrize("mmap", [True, False])
    def test_parent_format_mmap_flag_is_ignored(self, mmap):
        # Payloads written while in-RAM sidecar loading existed carry an
        # mmap flag; every sidecar is mapped now, so it reads as nothing.
        payload = {**_parent_payload(shards=None), "artifact": {"mmap": mmap, "verify": True}}
        config = ServingConfig.from_dict(json.loads(json.dumps(payload)))
        assert config == ServingConfig(verify=True)
        assert config.to_dict()["artifact"] == {"verify": True}
        assert "mmap" not in config.provenance()


def _via_constructor(shards, remote_workers):
    return ServingConfig(shards=shards, remote_workers=remote_workers)


def _via_payload(shards, remote_workers):
    payload = ServingConfig().to_dict()
    payload["sharding"] = {"shards": shards, "remote_workers": remote_workers}
    return ServingConfig.from_dict(json.loads(json.dumps(payload)))


def _via_override(shards, remote_workers):
    return ServingConfig().with_overrides({"shards": shards, "remote_workers": remote_workers})


@pytest.mark.parametrize(
    "build", [_via_constructor, _via_payload, _via_override],
    ids=["constructor", "payload", "override"],
)
@pytest.mark.parametrize(
    "shards, remote_workers, message",
    [
        (2.5, None, "expected an integer, got 2.5"),
        (True, None, "expected an integer, got True"),
        ("3", None, "expected an integer, got '3'"),
        ("abc", None, "expected an integer, got 'abc'"),
        ([2], None, r"expected an integer, got \[2\]"),
        (2, "nocolon", "invalid worker address 'nocolon'; expected HOST:PORT"),
        (2, "::1:9000", "invalid worker address '::1:9000'; an unbracketed IPv6"),
        (2, "a:1,b:x", "invalid worker address 'b:x'; the port must be an integer"),
    ],
    ids=["fraction", "bool", "digit-str", "str", "list", "nocolon", "bare-ipv6", "bad-port"],
)
def test_every_entry_point_refuses_bad_shards_and_addresses_alike(
    build, shards, remote_workers, message
):
    with pytest.raises(ConfigurationError, match=message):
        build(shards, remote_workers)


# --------------------------------------------------------------------------- #
# JSON round trip
# --------------------------------------------------------------------------- #
def _parent_payload(shards=3, engine=None, **sharding) -> dict:
    """A serving-config payload as a writer with ``backend``/``workers`` wrote it."""
    return {
        "config_version": 1,
        "dtype": "float64",
        "engine": engine,
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
        ServingConfig,
        shards=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
        verify=st.booleans(),
    )
    remote = st.builds(
        ServingConfig,
        shards=st.integers(min_value=1, max_value=64),
        remote_workers=st.lists(
            st.integers(min_value=1, max_value=65535), min_size=1, max_size=4
        ).map(lambda ports: ",".join(f"worker{i}:{p}" for i, p in enumerate(ports))),
        verify=st.booleans(),
    )
    return st.one_of(local, remote)


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
        config = ServingConfig(shards=2)
        assert "provider" not in config.to_dict()
        payload = {**config.to_dict(), "provider": provider}
        assert ServingConfig.from_dict(payload) == config

    @pytest.mark.parametrize("engine", [None, "numpy", "fused", "auto", "warp"])
    def test_parent_format_provider_none_is_ignored(self, engine):
        # A "none" provider pinned the numpy engine whatever the engine
        # said, so parent readers loaded these payloads; they still load.
        payload = {**ServingConfig().to_dict(), "engine": engine, "provider": "none"}
        assert ServingConfig.from_dict(payload) == ServingConfig()

    def test_payload_carries_no_engine(self):
        assert "engine" not in ServingConfig().to_dict()

    @pytest.mark.parametrize("provider", [None, "cc"])
    @pytest.mark.parametrize("engine", [None, "numpy", "fused", "auto"])
    def test_parent_format_engine_is_ignored(self, engine, provider):
        config = ServingConfig(verify=True)
        payload = {**config.to_dict(), "engine": engine, "provider": provider}
        assert ServingConfig.from_dict(json.loads(json.dumps(payload))) == config
        assert ServingConfig.from_dict(_parent_payload(engine=engine)) == ServingConfig(shards=3)

    @pytest.mark.parametrize("engine", ["cuda", "", "Fused", "none", 1, True])
    @pytest.mark.parametrize("provider", [None, "cc"])
    def test_parent_format_unknown_engine_rejected(self, engine, provider):
        payload = {**ServingConfig().to_dict(), "engine": engine, "provider": provider}
        with pytest.raises(ConfigurationError, match="unknown compute engine"):
            ServingConfig.from_dict(payload)

    @pytest.mark.parametrize("provider", ["mkl", "", "CC", 0, False])
    def test_parent_format_unknown_provider_rejected(self, provider):
        for engine in (None, "numpy", "warp"):
            payload = {**ServingConfig().to_dict(), "engine": engine, "provider": provider}
            with pytest.raises(ConfigurationError, match="unknown fused provider"):
                ServingConfig.from_dict(payload)

    def test_payload_carries_no_dtype(self):
        assert "dtype" not in ServingConfig().to_dict()

    def test_payload_carries_no_backend_or_workers(self):
        payload = ServingConfig(shards=3).to_dict()
        assert set(payload["sharding"]) == {"shards", "remote_workers"}

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_parent_format_local_backend_reads_as_serial(self, backend, workers):
        payload = _parent_payload(backend=backend, workers=workers)
        config = ServingConfig.from_dict(json.loads(json.dumps(payload)))
        assert config == ServingConfig(shards=3)
        plan = config.provenance()
        assert (plan["n_shards"], plan["backend"], plan["workers"]) == (3, "serial", 1)

    def test_parent_format_remote_backend_reads_as_remote(self):
        payload = _parent_payload(backend="remote", remote_workers="a:1,b:2")
        config = ServingConfig.from_dict(payload)
        assert config == ServingConfig(shards=3, remote_workers="a:1,b:2")
        plan = config.provenance()
        assert (plan["n_shards"], plan["backend"], plan["workers"]) == (3, "remote", 2)

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
        assert config == ServingConfig(shards=3)

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
    @pytest.mark.parametrize("engine", [None, "numpy", "fused", "auto"])
    def test_engine_override_rejected_by_name(self, engine):
        with pytest.raises(ConfigurationError, match="override 'engine' was removed"):
            ServingConfig().with_overrides({"engine": engine})

    def test_any_sharding_key_replaces_the_whole_spec(self):
        base = ServingConfig(shards=4, remote_workers="a:1,b:2", verify=True)
        # --shards 2 must not inherit the stale remote address list.
        assert base.with_overrides({"shards": 2}) == ServingConfig(shards=2, verify=True)

    def test_artifact_override_keeps_other_fields(self):
        base = ServingConfig(shards=2, verify=True)
        assert base.with_overrides({"verify": False}) == ServingConfig(shards=2)

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
            {"engine": "numpy"},
            {"engine": "fused", "shards": 2},
        ],
    )
    def test_removed_knob_overrides_rejected(self, overrides):
        knob = next(
            k
            for k in ("workers", "backend", "dtype", "engine", "provisioning", "mmap")
            if k in overrides
        )
        with pytest.raises(ConfigurationError, match=f"override '{knob}' was removed"):
            ServingConfig().with_overrides(overrides)


class TestEffectiveConfig:
    def test_default_when_nothing_given(self):
        assert effective_config() == ServingConfig()

    def test_full_config_wins_over_embedded(self):
        embedded = ServingConfig(shards=2).to_dict()
        config = ServingConfig(verify=True)
        assert effective_config(config=config, embedded=embedded) == config

    def test_config_plus_overrides_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            effective_config(config=ServingConfig(), overrides={"shards": 2})

    def test_overrides_apply_on_top_of_embedded(self):
        embedded = ServingConfig(shards=2, verify=True).to_dict()
        result = effective_config(overrides={"shards": 3}, embedded=embedded)
        assert result.shards == 3
        assert result.verify is True  # untouched embedded field survives

    def test_non_config_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a ServingConfig"):
            effective_config(config={"sharding": {"shards": 2}})


# --------------------------------------------------------------------------- #
# the backend and the provenance
# --------------------------------------------------------------------------- #
class TestBackendAndProvenance:
    def test_provenance_records_the_host_engine(self):
        plan = ServingConfig().provenance()
        assert plan["engine"] == kernels.host_engine()
        assert "engine_requested" not in plan
        assert not plan["sharded"]

    def test_unsharded_config_has_no_backend(self):
        config = ServingConfig()
        plan = config.provenance()
        assert (plan["n_shards"], plan["backend"], plan["workers"]) == (None, None, None)
        assert config.build_backend() is None

    def test_serial_backend_pins_one_worker(self):
        config = ServingConfig(shards=3)
        plan = config.provenance()
        assert (plan["backend"], plan["workers"]) == ("serial", 1)
        assert isinstance(config.build_backend(), SerialBackend)

    def test_remote_worker_count_is_the_address_list(self):
        config = ServingConfig(shards=4, remote_workers="a:1,b:2,c:3")
        plan = config.provenance()
        assert (plan["backend"], plan["workers"]) == ("remote", 3)
        assert plan["remote_workers"] == ["a:1", "b:2", "c:3"]
        backend = config.build_backend()
        assert isinstance(backend, RemoteBackend)
        assert backend.workers == 3

    def test_provenance_is_json_compatible(self):
        payload = json.loads(json.dumps(ServingConfig(shards=2).provenance()))
        assert payload["n_shards"] == 2
        assert payload["sharded"] is True
        assert "dtype" not in payload
        assert "provider" not in payload

    def test_each_call_returns_a_fresh_copy(self):
        config = ServingConfig(shards=2, remote_workers="a:1")
        first = config.provenance()
        first["remote_workers"].append("b:2")
        first["engine"] = "warp"
        second = config.provenance()
        assert second["remote_workers"] == ["a:1"]
        assert second["engine"] == kernels.host_engine()

    def test_usable_cores_adds_host_diagnostics(self):
        description = ServingConfig().provenance(usable_cores=True)
        assert description["usable_cores"] == usable_workers()
        assert description["engine"] == kernels.host_engine()
        assert "default_engine" not in description
        assert "usable_cores" not in ServingConfig().provenance()

    @settings(max_examples=100, deadline=None)
    @given(config=_configs())
    def test_every_config_has_a_provenance(self, config):
        plan = config.provenance()
        assert plan["engine"] in ("numpy", "fused")
        assert plan["n_shards"] == config.shards
        assert plan["verify"] is config.verify
        if config.shards:
            assert plan["workers"] >= 1
        else:
            assert plan["backend"] is None

    def test_missing_kernel_disables_fused(self, compilerless_host):
        # Last in the class: the host stays compiler-less until it ends.
        assert ServingConfig(shards=2).provenance()["engine"] == "numpy"
