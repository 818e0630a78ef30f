"""Synthetic KDD-style dataset generation.

The original paper evaluates on the public KDD Cup 99 / NSL-KDD intrusion
detection datasets.  Those files cannot be downloaded in this environment, so
this module provides a *generative model of the same schema*: each traffic
class (normal plus ~20 named attacks covering the DoS / Probe / R2L / U2R
categories) is described by a :class:`ClassProfile` — a set of per-feature
distributions whose parameters follow the well-documented statistical
signatures of the corresponding KDD classes (e.g. ``neptune`` records have
``flag = S0`` and ``serror_rate`` close to 1, ``smurf`` records are ICMP
``ecr_i`` bursts with ~1000 source bytes, R2L records look almost like normal
traffic except for content features such as ``num_failed_logins``).

What matters for reproducing the paper's *shape* of results is preserved:

* normal traffic forms a few dense clusters (per service),
* DoS and Probe records are voluminous and well separated from normal traffic
  on count / error-rate features, so they are easy to detect,
* R2L and U2R records are rare and overlap heavily with normal traffic, so
  they are hard to detect — exactly the per-category ordering reported by the
  GHSOM intrusion-detection literature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.data.records import Dataset
from repro.data.schema import ATTACK_TO_CATEGORY, KddSchema
from repro.exceptions import ConfigurationError, DataValidationError
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_probability_vector

#: Features that are rates and must stay within [0, 1].
_RATE_FEATURES = frozenset(
    {
        "serror_rate",
        "srv_serror_rate",
        "rerror_rate",
        "srv_rerror_rate",
        "same_srv_rate",
        "diff_srv_rate",
        "srv_diff_host_rate",
        "dst_host_same_srv_rate",
        "dst_host_diff_srv_rate",
        "dst_host_same_src_port_rate",
        "dst_host_srv_diff_host_rate",
        "dst_host_serror_rate",
        "dst_host_srv_serror_rate",
        "dst_host_rerror_rate",
        "dst_host_srv_rerror_rate",
    }
)

#: Count-like features that are bounded by the window sizes used in KDD.
_COUNT_LIMITS = {
    "count": 511.0,
    "srv_count": 511.0,
    "dst_host_count": 255.0,
    "dst_host_srv_count": 255.0,
}


@dataclass(frozen=True)
class NumericSpec:
    """Distribution specification for one numeric feature.

    Supported kinds and their parameters:

    ``constant``   -> value
    ``uniform``    -> low, high
    ``normal``     -> mean, std
    ``lognormal``  -> mean, sigma   (parameters of the underlying normal)
    ``poisson``    -> lam
    ``bernoulli``  -> p
    ``beta``       -> a, b          (useful for rate features)
    """

    kind: str
    params: Tuple[float, ...]

    _SUPPORTED = ("constant", "uniform", "normal", "lognormal", "poisson", "bernoulli", "beta")

    def __post_init__(self) -> None:
        if self.kind not in self._SUPPORTED:
            raise ConfigurationError(
                f"unsupported numeric distribution {self.kind!r}; expected one of {self._SUPPORTED}"
            )
        expected_arity = {
            "constant": 1,
            "uniform": 2,
            "normal": 2,
            "lognormal": 2,
            "poisson": 1,
            "bernoulli": 1,
            "beta": 2,
        }[self.kind]
        if len(self.params) != expected_arity:
            raise ConfigurationError(
                f"distribution {self.kind!r} expects {expected_arity} parameter(s), "
                f"got {len(self.params)}"
            )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` samples from the specified distribution."""
        if self.kind == "constant":
            return np.full(size, float(self.params[0]))
        if self.kind == "uniform":
            low, high = self.params
            return rng.uniform(low, high, size=size)
        if self.kind == "normal":
            mean, std = self.params
            return rng.normal(mean, std, size=size)
        if self.kind == "lognormal":
            mean, sigma = self.params
            return rng.lognormal(mean, sigma, size=size)
        if self.kind == "poisson":
            (lam,) = self.params
            return rng.poisson(lam, size=size).astype(float)
        if self.kind == "bernoulli":
            (p,) = self.params
            return (rng.random(size) < p).astype(float)
        if self.kind == "beta":
            a, b = self.params
            return rng.beta(a, b, size=size)
        raise ConfigurationError(f"unsupported numeric distribution {self.kind!r}")


def constant(value: float) -> NumericSpec:
    """Shorthand for a constant feature value."""
    return NumericSpec("constant", (float(value),))


def uniform(low: float, high: float) -> NumericSpec:
    """Shorthand for a uniform feature distribution."""
    return NumericSpec("uniform", (float(low), float(high)))


def lognormal(mean: float, sigma: float) -> NumericSpec:
    """Shorthand for a lognormal feature distribution."""
    return NumericSpec("lognormal", (float(mean), float(sigma)))


def normal(mean: float, std: float) -> NumericSpec:
    """Shorthand for a normal feature distribution."""
    return NumericSpec("normal", (float(mean), float(std)))


def poisson(lam: float) -> NumericSpec:
    """Shorthand for a Poisson feature distribution."""
    return NumericSpec("poisson", (float(lam),))


def bernoulli(p: float) -> NumericSpec:
    """Shorthand for a Bernoulli (0/1) feature distribution."""
    return NumericSpec("bernoulli", (float(p),))


def beta(a: float, b: float) -> NumericSpec:
    """Shorthand for a Beta feature distribution (rates in [0, 1])."""
    return NumericSpec("beta", (float(a), float(b)))


@dataclass
class ClassProfile:
    """Generative description of one traffic class.

    Parameters
    ----------
    label:
        The class label (a named attack or ``"normal"``).
    numeric:
        Mapping from numeric feature name to its :class:`NumericSpec`.
        Features not listed fall back to the profile's ``numeric_default``.
    categorical:
        Mapping from categorical feature name to a ``{value: weight}`` dict.
    numeric_default:
        Spec used for numeric features that are not explicitly listed;
        defaults to a constant zero (matching the very sparse content
        features of KDD records).
    """

    label: str
    numeric: Dict[str, NumericSpec] = field(default_factory=dict)
    categorical: Dict[str, Dict[str, float]] = field(default_factory=dict)
    numeric_default: NumericSpec = field(default_factory=lambda: constant(0.0))

    def __post_init__(self) -> None:
        schema = KddSchema()
        for name in self.numeric:
            if name not in schema.feature_names or schema.is_categorical(name):
                raise ConfigurationError(f"{name!r} is not a numeric schema feature")
        for name, weights in self.categorical.items():
            if not schema.is_categorical(name):
                raise ConfigurationError(f"{name!r} is not a categorical schema feature")
            admissible = set(schema.values_for(name))
            unknown = set(weights) - admissible
            if unknown:
                raise ConfigurationError(
                    f"categorical feature {name!r} has inadmissible values {sorted(unknown)}"
                )

    def sample(
        self, rng: np.random.Generator, size: int, schema: KddSchema
    ) -> Tuple[np.ndarray, list[np.ndarray]]:
        """Generate ``size`` records of this class as columns.

        Returns the ``(size, n_numeric)`` float block in
        ``schema.numeric_features`` order and one string array per
        ``schema.categorical`` feature.  The features are drawn in schema order.
        """
        numeric: list[np.ndarray] = []
        symbolic: list[np.ndarray] = []
        for name in schema.feature_names:
            if schema.is_categorical(name):
                values = schema.values_for(name)
                weights_map = self.categorical.get(name)
                if weights_map is None:
                    weights = np.ones(len(values))
                else:
                    weights = np.array([weights_map.get(value, 0.0) for value in values])
                probabilities = check_probability_vector(weights, name=f"{self.label}.{name}")
                sampled = rng.choice(np.array(values, dtype=object), size=size, p=probabilities)
                symbolic.append(sampled)
            else:
                spec = self.numeric.get(name, self.numeric_default)
                numeric.append(_clip_feature(name, spec.sample(rng, size)))
        return np.stack(numeric, axis=1), symbolic


def _clip_feature(name: str, values: np.ndarray) -> np.ndarray:
    """Clip sampled values to the physically admissible range of ``name``."""
    values = np.maximum(values, 0.0)
    if name in _RATE_FEATURES:
        values = np.clip(values, 0.0, 1.0)
    limit = _COUNT_LIMITS.get(name)
    if limit is not None:
        values = np.clip(values, 0.0, limit)
    if name in ("land", "logged_in", "root_shell", "su_attempted", "is_host_login", "is_guest_login"):
        values = np.round(np.clip(values, 0.0, 1.0))
    return values


# --------------------------------------------------------------------------- #
# Default class profiles
# --------------------------------------------------------------------------- #
def _normal_profile() -> ClassProfile:
    return ClassProfile(
        label="normal",
        numeric={
            "duration": lognormal(1.0, 1.5),
            "src_bytes": lognormal(5.5, 1.2),
            "dst_bytes": lognormal(6.5, 1.5),
            "logged_in": bernoulli(0.7),
            "hot": poisson(0.05),
            "count": poisson(8.0),
            "srv_count": poisson(8.0),
            "serror_rate": beta(1.0, 60.0),
            "srv_serror_rate": beta(1.0, 60.0),
            "rerror_rate": beta(1.0, 40.0),
            "srv_rerror_rate": beta(1.0, 40.0),
            "same_srv_rate": beta(20.0, 2.0),
            "diff_srv_rate": beta(1.5, 20.0),
            "srv_diff_host_rate": beta(1.5, 15.0),
            "dst_host_count": uniform(20.0, 255.0),
            "dst_host_srv_count": uniform(20.0, 255.0),
            "dst_host_same_srv_rate": beta(15.0, 2.0),
            "dst_host_diff_srv_rate": beta(1.5, 25.0),
            "dst_host_same_src_port_rate": beta(2.0, 15.0),
            "dst_host_srv_diff_host_rate": beta(1.5, 25.0),
            "dst_host_serror_rate": beta(1.0, 60.0),
            "dst_host_srv_serror_rate": beta(1.0, 60.0),
            "dst_host_rerror_rate": beta(1.0, 40.0),
            "dst_host_srv_rerror_rate": beta(1.0, 40.0),
        },
        categorical={
            "protocol_type": {"tcp": 0.80, "udp": 0.17, "icmp": 0.03},
            "service": {
                "http": 0.55,
                "smtp": 0.12,
                "dns": 0.12,
                "ftp": 0.04,
                "ftp_data": 0.05,
                "pop_3": 0.03,
                "ssh": 0.03,
                "telnet": 0.02,
                "finger": 0.01,
                "other": 0.03,
            },
            "flag": {"SF": 0.93, "REJ": 0.03, "RSTO": 0.02, "S0": 0.01, "OTH": 0.01},
        },
    )


def _neptune_profile() -> ClassProfile:
    # SYN-flood: half-open connections, no payload, very high SYN-error rates.
    return ClassProfile(
        label="neptune",
        numeric={
            "duration": constant(0.0),
            "src_bytes": constant(0.0),
            "dst_bytes": constant(0.0),
            "count": uniform(100.0, 511.0),
            "srv_count": uniform(1.0, 20.0),
            "serror_rate": beta(60.0, 1.0),
            "srv_serror_rate": beta(60.0, 1.0),
            "same_srv_rate": beta(1.5, 20.0),
            "diff_srv_rate": beta(10.0, 8.0),
            "dst_host_count": constant(255.0),
            "dst_host_srv_count": uniform(1.0, 30.0),
            "dst_host_same_srv_rate": beta(1.5, 20.0),
            "dst_host_diff_srv_rate": beta(8.0, 8.0),
            "dst_host_serror_rate": beta(60.0, 1.0),
            "dst_host_srv_serror_rate": beta(60.0, 1.0),
        },
        categorical={
            "protocol_type": {"tcp": 1.0},
            "service": {"private": 0.55, "http": 0.15, "telnet": 0.1, "smtp": 0.1, "other": 0.1},
            "flag": {"S0": 0.95, "REJ": 0.03, "SH": 0.02},
        },
    )


def _smurf_profile() -> ClassProfile:
    # ICMP echo-reply flood: fixed-size packets, massive same-service counts.
    return ClassProfile(
        label="smurf",
        numeric={
            "duration": constant(0.0),
            "src_bytes": normal(1032.0, 20.0),
            "dst_bytes": constant(0.0),
            "count": uniform(400.0, 511.0),
            "srv_count": uniform(400.0, 511.0),
            "same_srv_rate": constant(1.0),
            "diff_srv_rate": constant(0.0),
            "dst_host_count": constant(255.0),
            "dst_host_srv_count": constant(255.0),
            "dst_host_same_srv_rate": constant(1.0),
            "dst_host_same_src_port_rate": beta(30.0, 2.0),
        },
        categorical={
            "protocol_type": {"icmp": 1.0},
            "service": {"ecr_i": 1.0},
            "flag": {"SF": 1.0},
        },
    )


def _back_profile() -> ClassProfile:
    # HTTP DoS with very large request URLs.
    return ClassProfile(
        label="back",
        numeric={
            "duration": uniform(0.0, 10.0),
            "src_bytes": normal(54000.0, 3000.0),
            "dst_bytes": normal(8000.0, 2000.0),
            "logged_in": constant(1.0),
            "hot": normal(2.0, 0.5),
            "count": poisson(6.0),
            "srv_count": poisson(6.0),
            "same_srv_rate": constant(1.0),
            "dst_host_count": uniform(200.0, 255.0),
            "dst_host_srv_count": uniform(200.0, 255.0),
            "dst_host_same_srv_rate": constant(1.0),
        },
        categorical={
            "protocol_type": {"tcp": 1.0},
            "service": {"http": 1.0},
            "flag": {"SF": 0.9, "RSTR": 0.1},
        },
    )


def _teardrop_profile() -> ClassProfile:
    # Fragmentation attack: malformed UDP fragments.
    return ClassProfile(
        label="teardrop",
        numeric={
            "duration": constant(0.0),
            "src_bytes": normal(28.0, 2.0),
            "dst_bytes": constant(0.0),
            "wrong_fragment": constant(3.0),
            "count": uniform(50.0, 200.0),
            "srv_count": uniform(50.0, 200.0),
            "same_srv_rate": constant(1.0),
            "dst_host_count": uniform(10.0, 100.0),
            "dst_host_srv_count": uniform(10.0, 100.0),
            "dst_host_same_srv_rate": constant(1.0),
            "dst_host_same_src_port_rate": beta(20.0, 2.0),
        },
        categorical={
            "protocol_type": {"udp": 1.0},
            "service": {"private": 1.0},
            "flag": {"SF": 1.0},
        },
    )


def _pod_profile() -> ClassProfile:
    # Ping of death: oversized ICMP fragments.
    return ClassProfile(
        label="pod",
        numeric={
            "duration": constant(0.0),
            "src_bytes": normal(1480.0, 30.0),
            "dst_bytes": constant(0.0),
            "wrong_fragment": constant(1.0),
            "count": poisson(5.0),
            "srv_count": poisson(5.0),
            "same_srv_rate": constant(1.0),
            "dst_host_count": uniform(1.0, 30.0),
            "dst_host_srv_count": uniform(1.0, 30.0),
            "dst_host_same_srv_rate": constant(1.0),
        },
        categorical={
            "protocol_type": {"icmp": 1.0},
            "service": {"ecr_i": 1.0},
            "flag": {"SF": 1.0},
        },
    )


def _portsweep_profile() -> ClassProfile:
    # Sequential probe of many ports on one host: many rejected connections.
    return ClassProfile(
        label="portsweep",
        numeric={
            "duration": lognormal(0.5, 1.5),
            "src_bytes": uniform(0.0, 10.0),
            "dst_bytes": uniform(0.0, 10.0),
            "count": poisson(3.0),
            "srv_count": poisson(2.0),
            "rerror_rate": beta(30.0, 2.0),
            "srv_rerror_rate": beta(30.0, 2.0),
            "serror_rate": beta(4.0, 8.0),
            "same_srv_rate": beta(1.5, 15.0),
            "diff_srv_rate": beta(20.0, 2.0),
            "dst_host_count": constant(255.0),
            "dst_host_srv_count": uniform(1.0, 20.0),
            "dst_host_same_srv_rate": beta(1.5, 30.0),
            "dst_host_diff_srv_rate": beta(25.0, 2.0),
            "dst_host_rerror_rate": beta(25.0, 2.0),
            "dst_host_srv_rerror_rate": beta(25.0, 2.0),
        },
        categorical={
            "protocol_type": {"tcp": 1.0},
            "service": {"private": 0.8, "other": 0.2},
            "flag": {"REJ": 0.5, "RSTR": 0.3, "SH": 0.1, "S0": 0.1},
        },
    )


def _ipsweep_profile() -> ClassProfile:
    # Probe of many hosts on a single port (usually ICMP echo).
    return ClassProfile(
        label="ipsweep",
        numeric={
            "duration": constant(0.0),
            "src_bytes": normal(8.0, 2.0),
            "dst_bytes": constant(0.0),
            "count": poisson(2.0),
            "srv_count": poisson(2.0),
            "same_srv_rate": constant(1.0),
            "srv_diff_host_rate": beta(20.0, 2.0),
            "dst_host_count": uniform(1.0, 20.0),
            "dst_host_srv_count": uniform(1.0, 60.0),
            "dst_host_same_srv_rate": constant(1.0),
            "dst_host_srv_diff_host_rate": beta(20.0, 2.0),
            "dst_host_same_src_port_rate": beta(20.0, 2.0),
        },
        categorical={
            "protocol_type": {"icmp": 0.85, "tcp": 0.15},
            "service": {"ecr_i": 0.8, "http": 0.1, "other": 0.1},
            "flag": {"SF": 0.9, "REJ": 0.1},
        },
    )


def _satan_profile() -> ClassProfile:
    # Vulnerability scanner touching many services.
    return ClassProfile(
        label="satan",
        numeric={
            "duration": uniform(0.0, 5.0),
            "src_bytes": uniform(0.0, 30.0),
            "dst_bytes": uniform(0.0, 120.0),
            "count": poisson(8.0),
            "srv_count": poisson(3.0),
            "rerror_rate": beta(8.0, 6.0),
            "srv_rerror_rate": beta(8.0, 6.0),
            "serror_rate": beta(8.0, 6.0),
            "diff_srv_rate": beta(25.0, 2.0),
            "same_srv_rate": beta(2.0, 12.0),
            "srv_diff_host_rate": beta(8.0, 4.0),
            "dst_host_count": constant(255.0),
            "dst_host_srv_count": uniform(1.0, 40.0),
            "dst_host_diff_srv_rate": beta(20.0, 3.0),
            "dst_host_same_srv_rate": beta(2.0, 15.0),
            "dst_host_serror_rate": beta(6.0, 6.0),
            "dst_host_rerror_rate": beta(6.0, 6.0),
        },
        categorical={
            "protocol_type": {"tcp": 0.8, "udp": 0.2},
            "service": {"private": 0.45, "other": 0.25, "telnet": 0.1, "http": 0.1, "finger": 0.1},
            "flag": {"REJ": 0.35, "S0": 0.25, "SF": 0.25, "RSTR": 0.15},
        },
    )


def _nmap_profile() -> ClassProfile:
    return ClassProfile(
        label="nmap",
        numeric={
            "duration": constant(0.0),
            "src_bytes": uniform(0.0, 40.0),
            "dst_bytes": constant(0.0),
            "count": poisson(2.0),
            "srv_count": poisson(2.0),
            "serror_rate": beta(4.0, 6.0),
            "rerror_rate": beta(4.0, 6.0),
            "diff_srv_rate": beta(12.0, 3.0),
            "same_srv_rate": beta(3.0, 8.0),
            "dst_host_count": uniform(50.0, 255.0),
            "dst_host_srv_count": uniform(1.0, 30.0),
            "dst_host_same_src_port_rate": beta(25.0, 2.0),
            "dst_host_diff_srv_rate": beta(12.0, 4.0),
        },
        categorical={
            "protocol_type": {"tcp": 0.6, "udp": 0.25, "icmp": 0.15},
            "service": {"private": 0.7, "other": 0.2, "ecr_i": 0.1},
            "flag": {"SF": 0.4, "REJ": 0.2, "SH": 0.2, "S0": 0.2},
        },
    )


def _guess_passwd_profile() -> ClassProfile:
    # Password brute forcing: repeated failed logins over telnet/pop3/ftp.
    return ClassProfile(
        label="guess_passwd",
        numeric={
            "duration": uniform(0.0, 6.0),
            "src_bytes": normal(125.0, 20.0),
            "dst_bytes": normal(220.0, 40.0),
            "hot": constant(1.0),
            "num_failed_logins": uniform(1.0, 5.0),
            "logged_in": constant(0.0),
            "count": poisson(2.0),
            "srv_count": poisson(2.0),
            "same_srv_rate": beta(10.0, 2.0),
            "dst_host_count": uniform(1.0, 80.0),
            "dst_host_srv_count": uniform(1.0, 30.0),
            "dst_host_same_srv_rate": beta(8.0, 3.0),
            "dst_host_same_src_port_rate": beta(3.0, 8.0),
        },
        categorical={
            "protocol_type": {"tcp": 1.0},
            "service": {"telnet": 0.45, "pop_3": 0.25, "ftp": 0.2, "imap4": 0.1},
            "flag": {"SF": 0.8, "RSTO": 0.2},
        },
    )


def _warezclient_profile() -> ClassProfile:
    # Downloading illegal software copies over anonymous FTP.
    return ClassProfile(
        label="warezclient",
        numeric={
            "duration": lognormal(3.5, 1.0),
            "src_bytes": lognormal(7.5, 1.5),
            "dst_bytes": lognormal(4.0, 1.5),
            "hot": uniform(1.0, 30.0),
            "logged_in": constant(1.0),
            "is_guest_login": constant(1.0),
            "count": poisson(3.0),
            "srv_count": poisson(3.0),
            "same_srv_rate": beta(10.0, 2.0),
            "dst_host_count": uniform(1.0, 120.0),
            "dst_host_srv_count": uniform(1.0, 60.0),
            "dst_host_same_srv_rate": beta(8.0, 3.0),
        },
        categorical={
            "protocol_type": {"tcp": 1.0},
            "service": {"ftp": 0.45, "ftp_data": 0.55},
            "flag": {"SF": 1.0},
        },
    )


def _ftp_write_profile() -> ClassProfile:
    return ClassProfile(
        label="ftp_write",
        numeric={
            "duration": lognormal(2.0, 1.0),
            "src_bytes": normal(220.0, 40.0),
            "dst_bytes": normal(380.0, 60.0),
            "hot": uniform(1.0, 4.0),
            "logged_in": constant(1.0),
            "is_guest_login": bernoulli(0.6),
            "num_file_creations": uniform(1.0, 3.0),
            "num_access_files": uniform(1.0, 2.0),
            "count": poisson(2.0),
            "srv_count": poisson(2.0),
            "same_srv_rate": beta(10.0, 2.0),
            "dst_host_count": uniform(1.0, 60.0),
            "dst_host_srv_count": uniform(1.0, 30.0),
        },
        categorical={
            "protocol_type": {"tcp": 1.0},
            "service": {"ftp": 0.6, "ftp_data": 0.4},
            "flag": {"SF": 1.0},
        },
    )


def _imap_profile() -> ClassProfile:
    return ClassProfile(
        label="imap",
        numeric={
            "duration": uniform(0.0, 10.0),
            "src_bytes": normal(1200.0, 300.0),
            "dst_bytes": normal(350.0, 80.0),
            "logged_in": constant(0.0),
            "count": poisson(2.0),
            "srv_count": poisson(2.0),
            "same_srv_rate": beta(8.0, 3.0),
            "dst_host_count": uniform(1.0, 60.0),
            "dst_host_srv_count": uniform(1.0, 20.0),
        },
        categorical={
            "protocol_type": {"tcp": 1.0},
            "service": {"imap4": 1.0},
            "flag": {"SF": 0.6, "RSTO": 0.3, "S0": 0.1},
        },
    )


def _buffer_overflow_profile() -> ClassProfile:
    # User-to-root exploit: long interactive session ending in a root shell.
    return ClassProfile(
        label="buffer_overflow",
        numeric={
            "duration": lognormal(4.0, 1.0),
            "src_bytes": lognormal(6.0, 1.0),
            "dst_bytes": lognormal(7.5, 1.0),
            "hot": uniform(1.0, 6.0),
            "logged_in": constant(1.0),
            "root_shell": constant(1.0),
            "num_compromised": uniform(1.0, 3.0),
            "num_root": uniform(1.0, 6.0),
            "num_file_creations": uniform(1.0, 4.0),
            "num_shells": bernoulli(0.6),
            "count": poisson(1.5),
            "srv_count": poisson(1.5),
            "same_srv_rate": beta(10.0, 2.0),
            "dst_host_count": uniform(1.0, 30.0),
            "dst_host_srv_count": uniform(1.0, 15.0),
        },
        categorical={
            "protocol_type": {"tcp": 1.0},
            "service": {"telnet": 0.7, "ftp": 0.15, "ssh": 0.15},
            "flag": {"SF": 1.0},
        },
    )


def _rootkit_profile() -> ClassProfile:
    return ClassProfile(
        label="rootkit",
        numeric={
            "duration": lognormal(3.5, 1.2),
            "src_bytes": lognormal(5.5, 1.2),
            "dst_bytes": lognormal(6.0, 1.2),
            "hot": uniform(0.0, 3.0),
            "logged_in": constant(1.0),
            "root_shell": bernoulli(0.7),
            "num_root": uniform(1.0, 10.0),
            "num_file_creations": uniform(0.0, 4.0),
            "num_access_files": uniform(0.0, 2.0),
            "count": poisson(1.5),
            "srv_count": poisson(1.5),
            "same_srv_rate": beta(10.0, 2.0),
            "dst_host_count": uniform(1.0, 30.0),
            "dst_host_srv_count": uniform(1.0, 15.0),
        },
        categorical={
            "protocol_type": {"tcp": 0.8, "udp": 0.2},
            "service": {"telnet": 0.6, "ftp_data": 0.2, "other": 0.2},
            "flag": {"SF": 1.0},
        },
    )


def _loadmodule_profile() -> ClassProfile:
    return ClassProfile(
        label="loadmodule",
        numeric={
            "duration": lognormal(3.8, 1.0),
            "src_bytes": lognormal(5.8, 1.0),
            "dst_bytes": lognormal(6.5, 1.0),
            "hot": uniform(1.0, 3.0),
            "logged_in": constant(1.0),
            "root_shell": bernoulli(0.8),
            "su_attempted": bernoulli(0.4),
            "num_root": uniform(0.0, 4.0),
            "num_file_creations": uniform(1.0, 3.0),
            "count": poisson(1.5),
            "srv_count": poisson(1.5),
            "same_srv_rate": beta(10.0, 2.0),
            "dst_host_count": uniform(1.0, 30.0),
            "dst_host_srv_count": uniform(1.0, 15.0),
        },
        categorical={
            "protocol_type": {"tcp": 1.0},
            "service": {"telnet": 0.8, "http": 0.1, "other": 0.1},
            "flag": {"SF": 1.0},
        },
    )


def default_profiles() -> Dict[str, ClassProfile]:
    """The built-in class profiles, keyed by label."""
    profiles = [
        _normal_profile(),
        _neptune_profile(),
        _smurf_profile(),
        _back_profile(),
        _teardrop_profile(),
        _pod_profile(),
        _portsweep_profile(),
        _ipsweep_profile(),
        _satan_profile(),
        _nmap_profile(),
        _guess_passwd_profile(),
        _warezclient_profile(),
        _ftp_write_profile(),
        _imap_profile(),
        _buffer_overflow_profile(),
        _rootkit_profile(),
        _loadmodule_profile(),
    ]
    return {profile.label: profile for profile in profiles}


#: Default class mix approximating the (heavily skewed) KDD-99 10% subset,
#: moderated so that the rare classes still occur often enough to be measurable.
DEFAULT_CLASS_MIX: Dict[str, float] = {
    "normal": 0.55,
    "neptune": 0.12,
    "smurf": 0.12,
    "back": 0.02,
    "teardrop": 0.01,
    "pod": 0.01,
    "portsweep": 0.035,
    "ipsweep": 0.035,
    "satan": 0.025,
    "nmap": 0.015,
    "guess_passwd": 0.015,
    "warezclient": 0.015,
    "ftp_write": 0.005,
    "imap": 0.005,
    "buffer_overflow": 0.01,
    "rootkit": 0.005,
    "loadmodule": 0.005,
}


class KddSyntheticGenerator:
    """Generates labelled KDD-style datasets from class profiles.

    Parameters
    ----------
    profiles:
        Mapping from label to :class:`ClassProfile`.  Defaults to
        :func:`default_profiles`.
    class_mix:
        Mapping from label to sampling weight.  Defaults to
        :data:`DEFAULT_CLASS_MIX` restricted to the available profiles.
    random_state:
        Seed or generator for reproducibility.

    Example
    -------
    >>> generator = KddSyntheticGenerator(random_state=0)
    >>> dataset = generator.generate(100)
    >>> len(dataset)
    100
    """

    def __init__(
        self,
        profiles: Optional[Mapping[str, ClassProfile]] = None,
        class_mix: Optional[Mapping[str, float]] = None,
        random_state: RandomState = None,
    ) -> None:
        self.profiles = dict(profiles) if profiles is not None else default_profiles()
        if not self.profiles:
            raise ConfigurationError("at least one class profile is required")
        if class_mix is None:
            class_mix = {
                label: weight
                for label, weight in DEFAULT_CLASS_MIX.items()
                if label in self.profiles
            }
            if not class_mix:
                class_mix = {label: 1.0 for label in self.profiles}
        unknown = set(class_mix) - set(self.profiles)
        if unknown:
            raise ConfigurationError(f"class_mix references unknown profiles: {sorted(unknown)}")
        self.class_mix = dict(class_mix)
        self._rng = ensure_rng(random_state)
        self.schema = KddSchema()

    # ------------------------------------------------------------------ #
    def generate(self, n_records: int, class_mix: Optional[Mapping[str, float]] = None) -> Dataset:
        """Generate ``n_records`` records drawn according to ``class_mix``."""
        if n_records <= 0:
            raise DataValidationError(f"n_records must be positive, got {n_records}")
        mix = dict(class_mix) if class_mix is not None else self.class_mix
        unknown = set(mix) - set(self.profiles)
        if unknown:
            raise ConfigurationError(f"class_mix references unknown profiles: {sorted(unknown)}")
        labels = list(mix)
        weights = check_probability_vector([mix[label] for label in labels], name="class_mix")
        counts = self._rng.multinomial(n_records, weights)
        blocks: list[np.ndarray] = []
        symbolic_blocks: list[list[np.ndarray]] = []
        block_labels: list[np.ndarray] = []
        for label, count in zip(labels, counts, strict=True):
            if count == 0:
                continue
            numeric, symbolic = self.profiles[label].sample(self._rng, int(count), self.schema)
            blocks.append(numeric)
            symbolic_blocks.append(symbolic)
            block_labels.append(np.full(int(count), label, dtype=object))
        numeric = np.concatenate(blocks, axis=0)
        order = self._rng.permutation(numeric.shape[0])
        return Dataset(
            numeric[order],
            [np.concatenate(column)[order] for column in zip(*symbolic_blocks, strict=True)],
            np.concatenate(block_labels, axis=0)[order],
            schema=self.schema,
        )

    def generate_class(self, label: str, n_records: int) -> Dataset:
        """Generate ``n_records`` records of a single class."""
        if label not in self.profiles:
            raise ConfigurationError(f"no profile registered for class {label!r}")
        return self.generate(n_records, class_mix={label: 1.0})

    def generate_normal(self, n_records: int) -> Dataset:
        """Generate normal-only traffic (used for training the one-class detectors)."""
        return self.generate_class("normal", n_records)

    def generate_train_test(
        self,
        n_train: int,
        n_test: int,
        *,
        train_mix: Optional[Mapping[str, float]] = None,
        test_mix: Optional[Mapping[str, float]] = None,
    ) -> Tuple[Dataset, Dataset]:
        """Generate a train/test pair, optionally with different class mixes.

        Using a different mix for testing mimics the KDD evaluation protocol in
        which the test set contains attack types at different frequencies than
        the training set.
        """
        train = self.generate(n_train, class_mix=train_mix)
        test = self.generate(n_test, class_mix=test_mix)
        return train, test

    def categories_present(self) -> Dict[str, Tuple[str, ...]]:
        """Map from category to the labels of that category that can be generated."""
        by_category: Dict[str, list] = {}
        for label in self.profiles:
            category = ATTACK_TO_CATEGORY.get(label, "normal" if label == "normal" else None)
            if category is None:
                continue
            by_category.setdefault(category, []).append(label)
        return {category: tuple(sorted(labels)) for category, labels in by_category.items()}
