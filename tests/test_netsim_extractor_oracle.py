"""The columnar KddFeatureExtractor against the per-event definition of every feature.

``PerEventExtractor`` below is the straightforward implementation of the KDD
window features: for each event in time order it rescans a deque of the
connections of the last ``time_window_seconds`` and the last
``host_window_size`` connections to the same host.  It is slow (O(window) per
event) but obviously right, so it serves as the oracle: the production
extractor must reproduce its numeric block, symbolic columns and labels bit
for bit.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict, deque
from typing import Deque, Dict, Iterable, List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import Dataset
from repro.data.schema import FLAG_VALUES, PROTOCOL_VALUES, KddSchema
from repro.exceptions import SimulationError
from repro.netsim.attacks import SynFloodAttack
from repro.netsim.events import ConnectionEvent
from repro.netsim.extractor import CONTENT_FEATURES, KddFeatureExtractor
from repro.netsim.hosts import NetworkModel
from repro.netsim.simulator import ATTACK_REGISTRY, AttackInjection, TrafficSimulator

from record_rows import rows_to_dataset


def _safe_rate(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


class PerEventExtractor:
    """The per-event reference implementation of :class:`KddFeatureExtractor`."""

    def __init__(self, *, time_window_seconds: float = 2.0, host_window_size: int = 100) -> None:
        self.time_window_seconds = float(time_window_seconds)
        self.host_window_size = int(host_window_size)
        self.schema = KddSchema()

    def extract(self, events: Iterable[ConnectionEvent]) -> Dataset:
        ordered = sorted(events, key=lambda event: event.timestamp)
        rows: List[List[object]] = []
        labels: List[str] = []
        recent: Deque[ConnectionEvent] = deque()
        per_host_history: Dict[str, Deque[ConnectionEvent]] = defaultdict(
            lambda: deque(maxlen=self.host_window_size)
        )
        for event in ordered:
            cutoff = event.timestamp - self.time_window_seconds
            while recent and recent[0].timestamp < cutoff:
                recent.popleft()
            history = per_host_history[event.dst_ip]
            rows.append(
                self._basic_features(event)
                + [event.content_value(name) for name in CONTENT_FEATURES]
                + self._time_window_features(event, recent)
                + self._host_window_features(event, history)
            )
            labels.append(event.label)
            recent.append(event)
            history.append(event)
        return rows_to_dataset(rows, labels, self.schema)

    @staticmethod
    def _basic_features(event: ConnectionEvent) -> List[object]:
        land = 1.0 if (event.src_ip == event.dst_ip and event.src_port == event.dst_port) else 0.0
        return [
            float(event.duration),
            event.protocol,
            event.service,
            event.flag,
            float(event.src_bytes),
            float(event.dst_bytes),
            land or float(event.land),
            float(event.wrong_fragment),
            float(event.urgent),
        ]

    @staticmethod
    def _time_window_features(
        event: ConnectionEvent, recent: Sequence[ConnectionEvent]
    ) -> List[object]:
        same_host = [other for other in recent if other.dst_ip == event.dst_ip]
        same_service = [other for other in recent if other.service == event.service]
        count = len(same_host)
        srv_count = len(same_service)
        serror = sum(1 for other in same_host if other.is_syn_error)
        srv_serror = sum(1 for other in same_service if other.is_syn_error)
        rerror = sum(1 for other in same_host if other.is_rejected)
        srv_rerror = sum(1 for other in same_service if other.is_rejected)
        same_srv_within_host = sum(1 for other in same_host if other.service == event.service)
        diff_hosts_within_service = len({other.dst_ip for other in same_service} - {event.dst_ip})
        return [
            float(count),
            float(srv_count),
            _safe_rate(serror, count),
            _safe_rate(srv_serror, srv_count),
            _safe_rate(rerror, count),
            _safe_rate(srv_rerror, srv_count),
            _safe_rate(same_srv_within_host, count),
            _safe_rate(count - same_srv_within_host, count),
            _safe_rate(diff_hosts_within_service, srv_count),
        ]

    @staticmethod
    def _host_window_features(
        event: ConnectionEvent, history: Sequence[ConnectionEvent]
    ) -> List[object]:
        dst_host_count = len(history)
        same_service = [other for other in history if other.service == event.service]
        dst_host_srv_count = len(same_service)
        serror = sum(1 for other in history if other.is_syn_error)
        srv_serror = sum(1 for other in same_service if other.is_syn_error)
        rerror = sum(1 for other in history if other.is_rejected)
        srv_rerror = sum(1 for other in same_service if other.is_rejected)
        same_src_port = sum(1 for other in history if other.src_port == event.src_port)
        srv_diff_host = len({other.src_ip for other in same_service} - {event.src_ip})
        return [
            float(dst_host_count),
            float(dst_host_srv_count),
            _safe_rate(dst_host_srv_count, dst_host_count),
            _safe_rate(dst_host_count - dst_host_srv_count, dst_host_count),
            _safe_rate(same_src_port, dst_host_count),
            _safe_rate(srv_diff_host, dst_host_srv_count),
            _safe_rate(serror, dst_host_count),
            _safe_rate(srv_serror, dst_host_srv_count),
            _safe_rate(rerror, dst_host_count),
            _safe_rate(srv_rerror, dst_host_srv_count),
        ]


def _columns(dataset: Dataset):
    """The float block's bytes, the symbolic columns and the labels: equal means byte-identical."""
    symbolic = [dataset.column(name).tolist() for name in dataset.schema.categorical]
    return dataset.numeric_matrix().tobytes(), symbolic, dataset.labels.tolist()


def assert_matches_oracle(events, **params) -> None:
    got = KddFeatureExtractor(**params).extract(events)
    want = PerEventExtractor(**params).extract(events)
    assert _columns(got) == _columns(want)


# --------------------------------------------------------------------------- #
# random traces
# --------------------------------------------------------------------------- #
#: Few distinct hosts, services and ports, so window keys collide often; source
#: and destination share one pool, so ``land`` connections occur.
HOSTS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
SERVICES = ("http", "smtp", "ftp")
PORTS = (80, 1025, 40000)

window_fields = st.tuples(
    st.integers(0, 24),
    st.sampled_from(HOSTS),
    st.sampled_from(HOSTS),
    st.sampled_from(PORTS),
    st.sampled_from(PORTS),
    st.sampled_from(SERVICES),
    st.sampled_from(FLAG_VALUES),
)


@st.composite
def events_on_a_grid(draw):
    """Unsorted events whose timestamps sit on a coarse grid: ties and exact window edges.

    The fields the window features read are drawn; the rest (copied through
    unchanged) come from a seeded ``random.Random`` to keep examples cheap.
    """
    step = draw(st.sampled_from([0.25, 0.1, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    events = []
    for tick, src_ip, dst_ip, src_port, dst_port, service, flag in draw(
        st.lists(window_fields, min_size=1, max_size=40)
    ):
        content_keys = rng.sample(CONTENT_FEATURES[:4] + ("not_a_feature",), rng.randint(0, 3))
        events.append(
            ConnectionEvent(
                timestamp=tick * step,
                duration=rng.choice([0.0, 0.5, 3.0]),
                src_ip=src_ip,
                dst_ip=dst_ip,
                src_port=src_port,
                dst_port=dst_port,
                protocol=rng.choice(PROTOCOL_VALUES),
                service=service,
                flag=flag,
                src_bytes=rng.randint(0, 2**40),
                dst_bytes=rng.choice([rng.randint(0, 5000), rng.uniform(0.0, 1e6)]),
                land=rng.randint(0, 1),
                wrong_fragment=rng.randint(0, 3),
                urgent=rng.randint(0, 2),
                content={
                    key: rng.choice([rng.randint(0, 5), rng.uniform(0, 5)]) for key in content_keys
                },
                label=rng.choice(["normal", "neptune", "portsweep"]),
            )
        )
    return events


class TestAgainstPerEventOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        events=events_on_a_grid(),
        time_window_seconds=st.sampled_from([0.25, 0.5, 1.0, 2.0, 0.3]),
        host_window_size=st.integers(1, 5),
    )
    def test_random_traces_are_byte_identical(self, events, time_window_seconds, host_window_size):
        assert_matches_oracle(
            events, time_window_seconds=time_window_seconds, host_window_size=host_window_size
        )

    def test_exact_window_edge_is_inside(self):
        """An event exactly ``window`` seconds older still counts; ties keep input order."""
        events = [
            ConnectionEvent(t, 0.0, "10.0.0.1", "10.0.0.2", 40000, 80, "tcp", "http", "SF", 1, 1)
            for t in (2.0, 0.0, 2.0, 0.0)
        ]
        dataset = KddFeatureExtractor(time_window_seconds=2.0).extract(events)
        assert dataset.column("count").astype(float).tolist() == [0.0, 1.0, 2.0, 3.0]
        assert_matches_oracle(events, time_window_seconds=2.0)

    def test_simulated_trace_with_every_attack(self):
        """A seeded trace with each registered attack: whole, and in 250-event chunks."""
        names = sorted(ATTACK_REGISTRY)
        simulator = TrafficSimulator(
            150.0,
            sessions_per_second=5.0,
            injections=[
                AttackInjection(name, start_time=150.0 * (index + 1) / (len(names) + 1))
                for index, name in enumerate(names)
            ],
            random_state=3,
        )
        events = simulator.simulate_events()
        assert {event.label for event in events} >= set(names)
        assert_matches_oracle(events)
        for start in range(0, len(events), 250):
            assert_matches_oracle(events[start : start + 250])


class TestDenseFlood:
    @pytest.fixture(scope="class")
    def flood(self):
        """2,000 half-open connections in one second: the 2 s window holds all of them."""
        network = NetworkModel(random_state=0)
        return SynFloodAttack(
            network, n_connections=2000, duration_seconds=1.0, random_state=0
        ).generate()

    def test_flood_matches_oracle(self, flood):
        assert_matches_oracle(flood)
        counts = KddFeatureExtractor().extract(flood).column("count").astype(float)
        assert counts.max() == len(flood) - 1

    def test_flood_working_set_is_linear(self, flood):
        """No (events x window) temporary: peak allocation grows with the events only.

        The output holds 38 floats and three symbolic references (about
        330 bytes) per event; one int64 matrix over the 2,000-event window
        would add 16 kB per event.
        """
        extractor = KddFeatureExtractor()
        extractor.extract(flood)
        tracemalloc.start()
        try:
            extractor.extract(flood)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096 * len(flood)


class TestInvalidInput:
    def test_non_finite_timestamp_set_after_construction_rejected(self):
        event = ConnectionEvent(0.0, 0.0, "10.0.0.1", "10.0.0.2", 1, 80, "tcp", "http", "SF", 1, 1)
        later = ConnectionEvent(1.0, 0.0, "10.0.0.1", "10.0.0.2", 1, 80, "tcp", "http", "SF", 1, 1)
        event.timestamp = float("nan")
        with pytest.raises(SimulationError):
            KddFeatureExtractor().extract([event, later])

    def test_generator_input_accepted(self):
        events = [
            ConnectionEvent(float(t), 0.0, "10.0.0.1", "10.0.0.2", 1, 80, "tcp", "http", "SF", 1, 1)
            for t in range(3)
        ]
        dataset = KddFeatureExtractor().extract(event for event in events)
        assert len(dataset) == 3
