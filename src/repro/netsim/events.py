"""Flow-level connection events produced by the traffic simulator.

A :class:`ConnectionEvent` is one TCP/UDP/ICMP connection summarised at the
flow level — roughly what a NetFlow record plus light payload inspection would
yield.  The KDD *basic* and *content* features live directly on the event; the
*time-window* and *host-window* features are derived later by the
:class:`~repro.netsim.extractor.KddFeatureExtractor` from the ordering of
events in the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.data.schema import FLAG_VALUES, PROTOCOL_VALUES, SERVICE_VALUES
from repro.exceptions import SimulationError

#: Connection flags that indicate the SYN handshake failed (half-open scans / floods).
SYN_ERROR_FLAGS = frozenset({"S0", "SH"})

#: Connection flags that indicate the connection was rejected.
REJECT_FLAGS = frozenset({"REJ", "RSTO", "RSTR"})


@dataclass
class ConnectionEvent:
    """One simulated connection.

    Attributes
    ----------
    timestamp:
        Start time of the connection, in seconds from the start of the trace.
    duration:
        Connection duration in seconds.
    src_ip, dst_ip:
        Endpoint addresses (plain dotted strings; no real parsing is needed).
    src_port, dst_port:
        Endpoint ports (0 for ICMP).
    protocol:
        ``"tcp"``, ``"udp"`` or ``"icmp"``.
    service:
        Destination service name (one of the schema's service values).
    flag:
        Connection status flag (``"SF"`` = normal establishment and
        termination, ``"S0"`` = no reply to SYN, ``"REJ"`` = rejected, ...).
    src_bytes, dst_bytes:
        Payload bytes in each direction.
    land:
        1 when source and destination address/port are identical (the ``land``
        attack signature).
    wrong_fragment, urgent:
        Counts of malformed fragments and urgent packets.
    content:
        Optional content-inspection features (``hot``, ``num_failed_logins``,
        ``logged_in``, ``root_shell``, ...); missing keys default to zero when
        the record is assembled.
    label:
        Traffic label (``"normal"`` or an attack name).
    """

    timestamp: float
    duration: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: str
    service: str
    flag: str
    src_bytes: int
    dst_bytes: int
    land: int = 0
    wrong_fragment: int = 0
    urgent: int = 0
    content: Dict[str, float] = field(default_factory=dict)
    label: str = "normal"

    def __post_init__(self) -> None:
        for name in ("timestamp", "duration", "src_bytes", "dst_bytes"):
            value = getattr(self, name)
            if not isinstance(value, int) and not math.isfinite(value):
                raise SimulationError(f"{name} must be finite, got {value}")
        if self.timestamp < 0 or self.duration < 0:
            raise SimulationError(
                f"timestamps and durations must be non-negative, got "
                f"timestamp={self.timestamp}, duration={self.duration}"
            )
        if self.protocol not in PROTOCOL_VALUES:
            raise SimulationError(f"unknown protocol {self.protocol!r}")
        if self.service not in SERVICE_VALUES:
            raise SimulationError(f"unknown service {self.service!r}")
        if self.flag not in FLAG_VALUES:
            raise SimulationError(f"unknown flag {self.flag!r}")
        if self.src_bytes < 0 or self.dst_bytes < 0:
            raise SimulationError("byte counts must be non-negative")

    # ------------------------------------------------------------------ #
    @property
    def end_time(self) -> float:
        """Time at which the connection finished."""
        return self.timestamp + self.duration

    @property
    def is_syn_error(self) -> bool:
        """Whether the connection shows a SYN error (half-open)."""
        return self.flag in SYN_ERROR_FLAGS

    @property
    def is_rejected(self) -> bool:
        """Whether the connection was rejected or reset."""
        return self.flag in REJECT_FLAGS

    @property
    def is_attack(self) -> bool:
        """Whether the event carries an attack label."""
        return self.label != "normal"

    def content_value(self, key: str, default: float = 0.0) -> float:
        """A content feature with a default of zero."""
        return float(self.content.get(key, default))
