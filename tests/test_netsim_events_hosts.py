"""Tests for repro.netsim.events and repro.netsim.hosts."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.netsim.events import ConnectionEvent
from repro.netsim.hosts import SERVICE_PORTS, NetworkModel


def make_event(**overrides):
    base = {
        "timestamp": 1.0,
        "duration": 0.5,
        "src_ip": "10.0.0.1",
        "dst_ip": "10.0.1.1",
        "src_port": 40000,
        "dst_port": 80,
        "protocol": "tcp",
        "service": "http",
        "flag": "SF",
        "src_bytes": 100,
        "dst_bytes": 2000,
    }
    base.update(overrides)
    return ConnectionEvent(**base)


class TestConnectionEvent:
    def test_basic_properties(self):
        event = make_event()
        assert event.end_time == pytest.approx(1.5)
        assert not event.is_attack
        assert not event.is_syn_error
        assert not event.is_rejected

    def test_syn_error_flags(self):
        assert make_event(flag="S0").is_syn_error
        assert make_event(flag="SH").is_syn_error
        assert not make_event(flag="REJ").is_syn_error

    def test_reject_flags(self):
        assert make_event(flag="REJ").is_rejected
        assert make_event(flag="RSTO").is_rejected
        assert not make_event(flag="SF").is_rejected

    def test_attack_label(self):
        assert make_event(label="neptune").is_attack

    def test_content_value_defaults_to_zero(self):
        event = make_event(content={"hot": 2.0})
        assert event.content_value("hot") == 2.0
        assert event.content_value("num_failed_logins") == 0.0

    def test_negative_timestamp_rejected(self):
        with pytest.raises(SimulationError):
            make_event(timestamp=-1.0)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SimulationError):
            make_event(protocol="sctp")

    def test_unknown_service_rejected(self):
        with pytest.raises(SimulationError):
            make_event(service="gopher")

    def test_unknown_flag_rejected(self):
        with pytest.raises(SimulationError):
            make_event(flag="SYN")

    def test_negative_bytes_rejected(self):
        with pytest.raises(SimulationError):
            make_event(src_bytes=-5)

    @pytest.mark.parametrize("field", ["timestamp", "duration", "src_bytes", "dst_bytes"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, field, value):
        """NaN slips past ``< 0`` checks; a NaN timestamp would sort arbitrarily."""
        with pytest.raises(SimulationError, match=field):
            make_event(**{field: value})

    def test_large_integer_byte_counts_accepted(self):
        assert make_event(src_bytes=10**400).src_bytes == 10**400


class TestNetworkModel:
    def test_host_counts(self):
        network = NetworkModel(n_internal_hosts=10, n_external_hosts=20, n_servers=4, random_state=0)
        assert len(network.internal_hosts) == 10
        assert len(network.external_hosts) == 20
        assert len(network.servers) == 4

    def test_internal_addresses_include_servers(self):
        network = NetworkModel(n_internal_hosts=5, n_servers=3, random_state=0)
        addresses = network.all_internal_addresses()
        assert len(addresses) == 8
        for server in network.all_server_addresses():
            assert server in addresses

    def test_server_for_service_prefers_advertisers(self, rng):
        network = NetworkModel(random_state=0)
        for _ in range(10):
            server = network.server_for_service("http", rng)
            assert "http" in network.servers[server]

    def test_server_for_unknown_service_falls_back(self, rng):
        network = NetworkModel(n_servers=2, random_state=0)
        server = network.server_for_service("ecr_i", rng)
        assert server in network.servers

    def test_ephemeral_ports_in_range(self, rng):
        network = NetworkModel(random_state=0)
        ports = [network.ephemeral_port(rng) for _ in range(100)]
        assert min(ports) >= 1024 and max(ports) < 65535

    def test_service_ports_known(self):
        assert NetworkModel.port_for_service("http") == 80
        assert NetworkModel.port_for_service("dns") == 53
        assert NetworkModel.port_for_service("unknown_service") == 8888
        assert set(SERVICE_PORTS).issuperset({"http", "smtp", "ftp"})

    def test_invalid_sizes_rejected(self):
        with pytest.raises(SimulationError):
            NetworkModel(n_internal_hosts=0)

    def test_random_host_selection(self, rng):
        network = NetworkModel(random_state=0)
        assert network.random_internal_host(rng) in network.internal_hosts
        assert network.random_external_host(rng) in network.external_hosts

    def test_reproducible_with_seed(self):
        first = NetworkModel(random_state=5)
        second = NetworkModel(random_state=5)
        assert first.external_hosts == second.external_hosts
