"""Derivation of KDD-style connection records from a stream of connection events.

This reproduces the feature-construction step that turned the original DARPA
packet traces into the KDD Cup 99 connection records:

* **basic** and **content** features are copied from the event itself;
* **time-window** features (``count``, ``srv_count``, the error and
  same/diff-service rates) are computed over the connections seen in the two
  seconds preceding each event;
* **host-window** features (``dst_host_*``) are computed over the last 100
  connections to the same destination host.

The extractor is strictly causal: every feature of an event only depends on
events that started earlier, so the resulting dataset behaves like a stream a
real sensor could produce.  "Earlier" is the order of a stable sort by
timestamp: of two events with equal timestamps, the one given first counts as
earlier, and an event at exactly ``t - window`` is still inside the window of
an event at ``t``.

The window features are computed over columns, not per event.  The events are
sorted by time once; for every grouping key (destination host, service, ...)
a stable sort by key lays each group out as a run of positions in time order.
A window is then a slice of a run: its first member is one ``searchsorted``
away, its size is a difference of sorted indices, and a sum of error flags
over it is a difference of a cumulative sum.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import attrgetter
from typing import Dict, Hashable, Iterable, Sequence, Tuple

import numpy as np

from repro.data.records import Dataset
from repro.data.schema import KddSchema
from repro.exceptions import SimulationError
from repro.netsim.events import REJECT_FLAGS, SYN_ERROR_FLAGS, ConnectionEvent

#: Content features copied from ``ConnectionEvent.content`` (missing keys -> 0).
CONTENT_FEATURES = (
    "hot",
    "num_failed_logins",
    "logged_in",
    "num_compromised",
    "root_shell",
    "su_attempted",
    "num_root",
    "num_file_creations",
    "num_shells",
    "num_access_files",
    "num_outbound_cmds",
    "is_host_login",
    "is_guest_login",
)

_CONTENT_COLUMN = {name: column for column, name in enumerate(CONTENT_FEATURES)}

_TIMESTAMP = attrgetter("timestamp")
#: Numeric event attributes: the timestamp, then the numeric basic features in schema order.
_NUMERIC_NAMES = (
    "timestamp", "duration", "src_bytes", "dst_bytes", "land", "wrong_fragment", "urgent"
)
_NUMERIC_FIELDS = attrgetter(*_NUMERIC_NAMES)
_LAND = _NUMERIC_NAMES.index("land")
_OBJECT_FIELDS = attrgetter(
    "src_ip", "dst_ip", "src_port", "dst_port", "protocol", "service", "flag", "content", "label"
)

#: Per flag, 1 for a SYN error and 2**32 for a rejection, so one cumulative sum
#: counts both, each in its own 32 bits (no window holds 2**32 events).
_ERROR_WEIGHT = {**dict.fromkeys(SYN_ERROR_FLAGS, 1), **dict.fromkeys(REJECT_FLAGS, 1 << 32)}


def _split_errors(packed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """SYN-error and rejection counts from sums of :data:`_ERROR_WEIGHT`."""
    return packed & 0xFFFFFFFF, packed >> 32


def _codes(values: Sequence[Hashable]) -> np.ndarray:
    """Integer codes: two values share a code exactly when they are equal."""
    index = {value: code for code, value in enumerate(dict.fromkeys(values))}
    return np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))


def _rate(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` elementwise, 0 where the denominator is 0."""
    out = np.zeros(numerator.shape)
    np.divide(numerator, denominator, out=out, where=denominator != 0)
    return out


class _Runs:
    """Time-ordered events grouped by an integer key.

    A stable sort by key lays the events out group after group, each group in
    time order: the *sorted layout*.  ``order`` maps a sorted index to the
    event's time position and ``rank`` maps back.
    """

    def __init__(self, key: np.ndarray) -> None:
        n = key.size
        self.order = np.argsort(key, kind="stable")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.order] = np.arange(n)
        ordered = key[self.order]
        group = np.cumsum(np.concatenate(([False], ordered[1:] != ordered[:-1])))
        sizes = np.bincount(group)
        #: Per event: its group's dense id and the sorted index of the group's first member.
        self.group = group[self.rank]
        self.first = (np.cumsum(sizes) - sizes)[self.group]
        # (group, time position) as one sortable integer: the members of a
        # group at or after a position are one searchsorted away.
        self._stride = n + 1
        self._sorted = group * self._stride + self.order

    def start(self, lo: np.ndarray) -> np.ndarray:
        """Sorted index of each event's first group member at time position ``>= lo``."""
        return np.searchsorted(self._sorted, self.group * self._stride + lo)

    def count(self, start: np.ndarray) -> np.ndarray:
        """Group members from sorted index ``start`` up to (not including) each event."""
        return self.rank - start

    def total(self, values: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Sum of ``values`` over the same members as :meth:`count`."""
        running = np.concatenate(([0], np.cumsum(values[self.order])))
        return running[self.rank] - running[start]

    def distinct_others(self, values: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Distinct ``values`` over the members of :meth:`count`, other than the event's own.

        ``start`` must not decrease along a group.  Both windows satisfy that,
        and since ``start`` lies in the event's own group, it then never
        decreases over the whole sorted layout.  Member ``q``'s window is
        ``[L_q, q)``.  Let ``prev_j`` be the sorted index of the group member
        before ``j`` with the same value (the index before the group if none).
        A value is new in the window at the member ``j`` with ``prev_j < L_q``,
        and every ``j < L_q`` passes that test too, so the distinct count is
        ``#{j < q : prev_j < L_q} - L_q``.  As ``L`` never decreases, ``j`` is
        in that set for every ``q`` from ``max(j + 1, first q with
        L_q > prev_j)`` on: one histogram of those starting points counts the
        set for every ``q`` at once.
        """
        n = self.order.size
        window = start[self.order]
        pair = self.group * (int(values.max()) + 1) + values
        by_value = np.argsort(pair, kind="stable")
        repeat = np.flatnonzero(pair[by_value[1:]] == pair[by_value[:-1]])
        previous = self.first - 1
        previous[by_value[repeat + 1]] = self.rank[by_value[repeat]]
        previous = previous[self.order]
        counted_from = np.maximum(
            np.arange(1, n + 1), np.searchsorted(window, previous, side="right")
        )
        distinct = np.cumsum(np.bincount(counted_from, minlength=n + 1))[:n] - window
        return (distinct - (previous >= window))[self.rank]


class KddFeatureExtractor:
    """Turns a time-ordered event stream into a KDD-style :class:`Dataset`.

    Parameters
    ----------
    time_window_seconds:
        Length of the time window for the ``count``-family features
        (2 seconds in the original KDD definition).
    host_window_size:
        Number of past connections to the same destination host used for the
        ``dst_host_*`` features (100 in the original definition).
    """

    def __init__(self, *, time_window_seconds: float = 2.0, host_window_size: int = 100) -> None:
        if time_window_seconds <= 0:
            raise SimulationError(
                f"time_window_seconds must be positive, got {time_window_seconds}"
            )
        if host_window_size < 1:
            raise SimulationError(f"host_window_size must be >= 1, got {host_window_size}")
        self.time_window_seconds = float(time_window_seconds)
        self.host_window_size = int(host_window_size)
        self.schema = KddSchema()

    # ------------------------------------------------------------------ #
    def extract(self, events: Iterable[ConnectionEvent]) -> Dataset:
        """Compute the 41 features for every event and return a labelled dataset."""
        ordered = sorted(events, key=_TIMESTAMP)
        if not ordered:
            raise SimulationError("cannot extract features from an empty event stream")
        n = len(ordered)
        width = len(_NUMERIC_NAMES)
        numbers = np.fromiter(
            chain.from_iterable(map(_NUMERIC_FIELDS, ordered)), dtype=float, count=width * n
        ).reshape(n, width)
        timestamps = np.ascontiguousarray(numbers[:, 0])
        if not np.isfinite(timestamps).all():
            raise SimulationError("event timestamps must be finite")
        src_ip, dst_ip, src_port, dst_port, protocol, service, flag, content, label = zip(
            *map(_OBJECT_FIELDS, ordered)
        )
        # Sources and destinations share one code space: equal codes are equal endpoints.
        hosts, ports = _codes(src_ip + dst_ip), _codes(src_port + dst_port)
        src, dst, port = hosts[:n], hosts[n:], ports[:n]
        # A connection from an endpoint to itself is a land connection whatever the event says.
        land = (src == dst) & (port == ports[n:])
        numbers[:, _LAND] = np.where(land, 1.0, numbers[:, _LAND])
        # The numeric features in schema order (basic, content, window);
        # ``Dataset`` checks the block's width against the schema.
        numeric = np.hstack(
            (
                numbers[:, 1:],
                self._content_features(content),
                self._window_features(timestamps, src, dst, port, _codes(service), flag),
            )
        )
        return Dataset(numeric, (protocol, service, flag), label, schema=self.schema)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _content_features(contents: Sequence[Dict[str, float]]) -> np.ndarray:
        """The :data:`CONTENT_FEATURES` columns; 0 where an event's ``content`` lacks the key."""
        matrix = np.zeros((len(contents), len(CONTENT_FEATURES)))
        cells = [
            (row, _CONTENT_COLUMN[name], float(value))
            for row, content in enumerate(contents)
            for name, value in content.items()
            if name in _CONTENT_COLUMN
        ]
        if cells:
            rows, columns, values = zip(*cells)
            matrix[rows, columns] = values
        return matrix

    def _window_features(
        self,
        timestamps: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        port: np.ndarray,
        service: np.ndarray,
        flag: Sequence[str],
    ) -> np.ndarray:
        """The 9 time-window and 10 host-window features, one column each."""
        errors = np.fromiter(
            map(_ERROR_WEIGHT.get, flag, repeat(0)), dtype=np.int64, count=timestamps.size
        )
        by_host, by_service = _Runs(dst), _Runs(service)
        by_host_service = _Runs(dst * (int(service.max()) + 1) + service)
        by_host_port = _Runs(dst * (int(port.max()) + 1) + port)

        # Time window: earlier events at most ``time_window_seconds`` older.
        lo = np.searchsorted(timestamps, timestamps - self.time_window_seconds, side="left")
        host_start, service_start = by_host.start(lo), by_service.start(lo)
        count = by_host.count(host_start)
        srv_count = by_service.count(service_start)
        same_srv = by_host_service.count(by_host_service.start(lo))
        serror, rerror = _split_errors(by_host.total(errors, host_start))
        srv_serror, srv_rerror = _split_errors(by_service.total(errors, service_start))
        diff_hosts = by_service.distinct_others(dst, service_start)

        # Host window: the last ``host_window_size`` earlier events to the same host.
        window_start = np.maximum(by_host.rank - self.host_window_size, by_host.first)
        window_lo = by_host.order[window_start]
        pair_start = by_host_service.start(window_lo)
        host_count = by_host.count(window_start)
        host_srv_count = by_host_service.count(pair_start)
        same_port = by_host_port.count(by_host_port.start(window_lo))
        host_serror, host_rerror = _split_errors(by_host.total(errors, window_start))
        host_srv_serror, host_srv_rerror = _split_errors(by_host_service.total(errors, pair_start))
        srv_diff_host = by_host_service.distinct_others(src, pair_start)

        # Every feature is one ratio; the raw counts divide by one, which is exact.
        ones = np.ones_like(count)
        ratios = (
            (count, ones),
            (srv_count, ones),
            (serror, count),
            (srv_serror, srv_count),
            (rerror, count),
            (srv_rerror, srv_count),
            (same_srv, count),
            (count - same_srv, count),
            (diff_hosts, srv_count),
            (host_count, ones),
            (host_srv_count, ones),
            (host_srv_count, host_count),
            (host_count - host_srv_count, host_count),
            (same_port, host_count),
            (srv_diff_host, host_srv_count),
            (host_serror, host_count),
            (host_srv_serror, host_srv_count),
            (host_rerror, host_count),
            (host_srv_rerror, host_srv_count),
        )
        numerator, denominator = (np.array(side) for side in zip(*ratios))
        return _rate(numerator, denominator).T
