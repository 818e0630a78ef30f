"""The KDD Cup 99 / NSL-KDD connection-record feature schema.

Network traffic is summarised into *connection records*, each describing one
TCP/UDP/ICMP connection with 41 features grouped into four families:

* **basic** features derived from the connection itself (duration, protocol,
  service, flag, bytes transferred, ...),
* **content** features derived from payload inspection (failed logins, shell
  prompts, ...),
* **time-window** features computed over the last two seconds of traffic from
  the same source (connection counts, error rates, ...), and
* **host-window** features computed over the last 100 connections to the same
  destination host.

This module defines the canonical feature ordering, which features are
categorical, and the mapping from named attacks (``smurf``, ``neptune``, ...)
to the four high-level attack categories used in the evaluation: ``dos``,
``probe``, ``r2l`` and ``u2r``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import SchemaError

#: Canonical KDD-99 feature names, in column order.
FEATURE_NAMES: Tuple[str, ...] = (
    # --- basic features -------------------------------------------------
    "duration",
    "protocol_type",
    "service",
    "flag",
    "src_bytes",
    "dst_bytes",
    "land",
    "wrong_fragment",
    "urgent",
    # --- content features ------------------------------------------------
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
    # --- time-based traffic features (2-second window) --------------------
    "count",
    "srv_count",
    "serror_rate",
    "srv_serror_rate",
    "rerror_rate",
    "srv_rerror_rate",
    "same_srv_rate",
    "diff_srv_rate",
    "srv_diff_host_rate",
    # --- host-based traffic features (100-connection window) --------------
    "dst_host_count",
    "dst_host_srv_count",
    "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate",
    "dst_host_srv_serror_rate",
    "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
)

#: Features whose values are symbolic rather than numeric.
CATEGORICAL_FEATURES: Tuple[str, ...] = ("protocol_type", "service", "flag")

#: Binary indicator features (kept numeric, but useful to know for generation).
BINARY_FEATURES: Tuple[str, ...] = (
    "land",
    "logged_in",
    "root_shell",
    "su_attempted",
    "is_host_login",
    "is_guest_login",
)

#: Values the categorical features may take in this reproduction.
PROTOCOL_VALUES: Tuple[str, ...] = ("tcp", "udp", "icmp")
SERVICE_VALUES: Tuple[str, ...] = (
    "http",
    "smtp",
    "ftp",
    "ftp_data",
    "telnet",
    "dns",
    "ssh",
    "pop_3",
    "imap4",
    "ecr_i",
    "private",
    "finger",
    "other",
)
FLAG_VALUES: Tuple[str, ...] = ("SF", "S0", "REJ", "RSTO", "RSTR", "SH", "OTH")

#: The four attack categories plus the normal class.
ATTACK_CATEGORIES: Tuple[str, ...] = ("normal", "dos", "probe", "r2l", "u2r")

#: Mapping from named attacks (as found in KDD-style label columns) to categories.
ATTACK_TO_CATEGORY: Dict[str, str] = {
    "normal": "normal",
    # denial of service
    "smurf": "dos",
    "neptune": "dos",
    "back": "dos",
    "teardrop": "dos",
    "pod": "dos",
    "land": "dos",
    "udpstorm": "dos",
    "apache2": "dos",
    "processtable": "dos",
    "mailbomb": "dos",
    # probing / scanning
    "portsweep": "probe",
    "ipsweep": "probe",
    "satan": "probe",
    "nmap": "probe",
    "mscan": "probe",
    "saint": "probe",
    # remote to local
    "guess_passwd": "r2l",
    "ftp_write": "r2l",
    "imap": "r2l",
    "phf": "r2l",
    "multihop": "r2l",
    "warezmaster": "r2l",
    "warezclient": "r2l",
    "spy": "r2l",
    "snmpguess": "r2l",
    "snmpgetattack": "r2l",
    "httptunnel": "r2l",
    "sendmail": "r2l",
    "xlock": "r2l",
    "xsnoop": "r2l",
    "named": "r2l",
    # user to root
    "buffer_overflow": "u2r",
    "rootkit": "u2r",
    "loadmodule": "u2r",
    "perl": "u2r",
    "sqlattack": "u2r",
    "xterm": "u2r",
    "ps": "u2r",
}


def attack_category(label: str) -> str:
    """Return the high-level category (``normal``/``dos``/``probe``/``r2l``/``u2r``) for a label.

    Labels that are already categories are returned unchanged.  Trailing dots
    (present in the original KDD files, e.g. ``"smurf."``) are stripped.

    Raises
    ------
    SchemaError
        If the label is not a known attack name or category.
    """
    cleaned = label.strip().rstrip(".").lower()
    if cleaned in ATTACK_CATEGORIES:
        return cleaned
    if cleaned in ATTACK_TO_CATEGORY:
        return ATTACK_TO_CATEGORY[cleaned]
    raise SchemaError(f"unknown traffic label: {label!r}")


@dataclass(frozen=True)
class KddSchema:
    """Describes the layout of a KDD-style feature table.

    The default instance describes the full 41-feature schema; reduced schemas
    (e.g. after feature selection) can be constructed by passing an explicit
    ``feature_names`` tuple.
    """

    feature_names: Tuple[str, ...] = FEATURE_NAMES
    categorical: Tuple[str, ...] = CATEGORICAL_FEATURES
    categorical_values: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: {
            "protocol_type": PROTOCOL_VALUES,
            "service": SERVICE_VALUES,
            "flag": FLAG_VALUES,
        }
    )

    def __post_init__(self) -> None:
        unknown = [name for name in self.categorical if name not in self.feature_names]
        if unknown:
            raise SchemaError(f"categorical features not in schema: {unknown}")
        missing_values = [name for name in self.categorical if name not in self.categorical_values]
        if missing_values:
            raise SchemaError(f"categorical features without a value set: {missing_values}")

    @property
    def n_features(self) -> int:
        """Number of raw (pre-encoding) features."""
        return len(self.feature_names)

    @property
    def numeric_features(self) -> Tuple[str, ...]:
        """Names of the non-categorical features, in schema order."""
        return tuple(name for name in self.feature_names if name not in self.categorical)

    def index_of(self, feature: str) -> int:
        """Position of ``feature`` in the schema's feature order."""
        try:
            return self.feature_names.index(feature)
        except ValueError as exc:
            raise SchemaError(f"feature {feature!r} is not part of the schema") from exc

    def is_categorical(self, feature: str) -> bool:
        """Whether ``feature`` is symbolic."""
        if feature not in self.feature_names:
            raise SchemaError(f"feature {feature!r} is not part of the schema")
        return feature in self.categorical

    def values_for(self, feature: str) -> Tuple[str, ...]:
        """The admissible symbolic values for a categorical feature."""
        if not self.is_categorical(feature):
            raise SchemaError(f"feature {feature!r} is not categorical")
        return self.categorical_values[feature]


def category_labels(labels: Sequence[str]) -> List[str]:
    """Vectorised :func:`attack_category` over a sequence of labels."""
    return [attack_category(label) for label in labels]
