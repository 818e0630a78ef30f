"""Anomaly detectors: the common interface and the GHSOM detector.

Every detector in this library (the GHSOM detector here and the baselines in
:mod:`repro.baselines`) follows the same small contract:

``fit(X, y=None)``
    Train on a numeric feature matrix.  ``y`` is an optional vector of string
    class labels (categories or named attacks).  When labels are given the
    detector may additionally learn to classify; when they are absent it
    operates purely as a one-class / novelty detector.
``score_samples(X)``
    Continuous anomaly scores, larger = more anomalous.  Scores are
    *threshold-normalised*: a score of 1.0 sits exactly at the calibrated
    alarm threshold, so ``score > 1`` and ``predict(X) == 1`` agree for
    unlabeled data.
``predict(X)``
    Binary decisions: 1 for anomaly, 0 for normal.
``predict_category(X)``
    Best-effort class labels (only meaningful when ``fit`` saw labels).
``detect(X)``
    All of the above in one :class:`DetectionResult`, computed from a single
    scoring pass — the serving entry point (the CLI, the streaming wrapper and
    the evaluation harness all go through it).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.compiled import CompiledGhsom
from repro.core.config import GhsomConfig
from repro.core.ghsom import Ghsom
from repro.core.labeling import UNLABELED, UnitLabeler
from repro.core.thresholds import make_threshold_strategy
from repro.exceptions import ConfigurationError, NotFittedError
from repro.utils.rng import RandomState
from repro.utils.validation import check_array_2d, check_same_length

if TYPE_CHECKING:  # import cycle: repro.serving imports repro.core at runtime
    from repro.serving.backends import ShardBackend
    from repro.serving.config import ServingConfig, ServingPlan

#: Nominal alarm threshold on the normalised score scale: a score of exactly
#: 1.0 sits *at* the calibrated threshold and does **not** alarm.
ALARM_THRESHOLD = 1.0

#: Category of each alarm decision (0/1) for models without class labels;
#: an object array, so indexing it and ``tolist()`` yield Python ``str``.
_DECISION_CATEGORIES = np.array(["normal", "anomaly"], dtype=object)


def alarm_decisions(scores, threshold: float = ALARM_THRESHOLD) -> np.ndarray:
    """Binary alarm decisions from threshold-normalised scores.

    The single source of truth for the decision rule: a record alarms only
    when its score is *strictly above* the threshold.  Every decision path in
    the library — batch ``predict``, the single-pass ``detect``, and the
    streaming wrapper's adaptive rule (where ``threshold`` is the effective
    scale) — goes through this function, so a score landing exactly on the
    boundary receives the same verdict everywhere.
    """
    return (np.asarray(scores, dtype=float) > float(threshold)).astype(int)


@dataclass(frozen=True)
class DetectionResult:
    """Everything a serving consumer needs about one scored batch.

    Produced by :meth:`BaseAnomalyDetector.detect` so that callers needing
    scores *and* decisions *and* class labels (the CLI ``detect`` command, the
    evaluation harness, the streaming wrapper) pay for one scoring pass
    instead of one per method call.

    Attributes
    ----------
    scores:
        Threshold-normalised anomaly scores (1.0 = at the alarm threshold).
    predictions:
        Binary decisions, 1 for anomaly — always ``(scores > 1.0)``.
    categories:
        Best-effort class label per record.
    leaf_index:
        Compiled leaf-table row per record for detectors with a leaf topology
        (:class:`GhsomDetector`); ``None`` for detectors without one.
    stats:
        Per-batch serving observability
        (:class:`~repro.serving.config.ServingStats`: stage timings plus the
        resolved-plan provenance) for detectors that instrument their serving
        path; ``None`` for the baselines.
    """

    scores: np.ndarray
    predictions: np.ndarray
    categories: List[str]
    leaf_index: Optional[np.ndarray] = None
    stats: Optional[object] = None

    def __len__(self) -> int:
        return int(self.scores.shape[0])


def combine_label_and_distance_scores(
    ratios: np.ndarray,
    leaf_keys: Sequence,
    labeler: Optional[UnitLabeler],
) -> np.ndarray:
    """Fold unit labels into distance-based scores for labelled detectors.

    Records landing on attack-labelled units receive a score above 1.0 (they
    alarm regardless of how close they sit to the unit's weight vector),
    graded by the unit's label purity so purer attack units rank higher;
    records on normal or unlabeled units keep their threshold-normalised
    distance ratio.  This keeps ``predict(X) == 1`` equivalent to
    ``score_samples(X) > 1`` in both operating modes and makes ROC curves of
    labelled detectors meaningful.
    """
    ratios = np.asarray(ratios, dtype=float)
    if labeler is None or ratios.size == 0:
        return ratios
    # Resolve label info once per *distinct* leaf, then broadcast to samples
    # with integer indexing — batches revisit the same handful of leaves, so
    # this replaces n ``info_of`` calls with one per unique key.
    key_rows: Dict[object, int] = {}
    sample_rows = np.empty(len(leaf_keys), dtype=np.intp)
    for index, key in enumerate(leaf_keys):
        row = key_rows.setdefault(key, len(key_rows))
        sample_rows[index] = row
    is_attack = np.zeros(len(key_rows), dtype=bool)
    purity = np.zeros(len(key_rows), dtype=float)
    for key, row in key_rows.items():
        info = labeler.info_of(key)
        if _is_attack_label(info.label):
            is_attack[row] = True
            purity[row] = info.purity
    return _fold_attack_labels(ratios, is_attack[sample_rows], purity[sample_rows])


def _is_attack_label(label: str) -> bool:
    """Whether a unit label triggers the above-threshold score folding.

    Single source of truth for the predicate, shared by the leaf-key path
    above (used by the baselines) and the detector's compiled leaf tables —
    keeping the two scoring paths from silently diverging.
    """
    return label not in ("normal", UNLABELED)


def _fold_attack_labels(
    ratios: np.ndarray, attack_mask: np.ndarray, purity: np.ndarray
) -> np.ndarray:
    """Core of :func:`combine_label_and_distance_scores` on pre-resolved arrays."""
    scores = ratios.copy()
    if attack_mask.any():
        scores[attack_mask] = (
            1.0 + purity[attack_mask] + 0.01 * np.minimum(ratios[attack_mask], 10.0)
        )
    return scores


@dataclass(frozen=True)
class _LeafTables:
    """Per-leaf lookup arrays aligned with a compiled GHSOM's leaf table.

    Built once per fitted detector; every scoring call then reduces to
    ``assign_arrays`` plus integer fancy-indexing into these arrays.
    """

    compiled: CompiledGhsom
    threshold_source: object  # the strategy instance the table was built from
    threshold_version: int  # its fit_version at build time (in-place refit check)
    labeler_source: Optional[object]  # the labeler instance the table was built from
    labeler_version: int  # its fit_version at build time
    thresholds: np.ndarray  # (L,) calibrated distance threshold per leaf
    labels: Optional[np.ndarray]  # (L,) object array of unit labels
    is_attack: Optional[np.ndarray]  # (L,) label not in {normal, unlabeled}
    purity: Optional[np.ndarray]  # (L,) label purity (attack leaves only)


def build_leaf_tables(
    compiled: CompiledGhsom,
    threshold_strategy,
    labeler: Optional[UnitLabeler],
) -> _LeafTables:
    """Materialise the per-leaf scoring tables for a compiled model.

    Called by the detector whenever its cached tables are stale; the
    serialization layer stores the resulting arrays in v2 artifacts so a
    loaded detector skips even this (cheap) per-leaf evaluation.
    """
    thresholds = compiled.leaf_lookup(threshold_strategy.threshold_for, dtype=float)
    labels = is_attack = purity = None
    if labeler is not None:
        infos = [labeler.info_of(key) for key in compiled.leaf_keys]
        labels = np.array([info.label for info in infos], dtype=object)
        is_attack = np.array([_is_attack_label(info.label) for info in infos], dtype=bool)
        purity = np.array(
            [info.purity if flag else 0.0 for info, flag in zip(infos, is_attack, strict=True)],
            dtype=float,
        )
    return _LeafTables(
        compiled=compiled,
        threshold_source=threshold_strategy,
        threshold_version=threshold_strategy.fit_version,
        labeler_source=labeler,
        labeler_version=0 if labeler is None else labeler.fit_version,
        thresholds=thresholds,
        labels=labels,
        is_attack=is_attack,
        purity=purity,
    )


def restore_leaf_tables(
    compiled: CompiledGhsom,
    threshold_strategy,
    labeler: Optional[UnitLabeler],
    *,
    thresholds: np.ndarray,
    labels: Optional[np.ndarray] = None,
    is_attack: Optional[np.ndarray] = None,
    purity: Optional[np.ndarray] = None,
) -> _LeafTables:
    """Rebuild leaf tables from arrays stored in a v2 model artifact.

    The tables are pinned to the freshly deserialized strategy / labeler
    objects at their current ``fit_version``, so any later in-place refit
    invalidates them exactly as it would invalidate live-built tables.
    """
    return _LeafTables(
        compiled=compiled,
        threshold_source=threshold_strategy,
        threshold_version=threshold_strategy.fit_version,
        labeler_source=labeler,
        labeler_version=0 if labeler is None else labeler.fit_version,
        thresholds=np.asarray(thresholds, dtype=float),
        labels=None if labels is None else np.asarray(labels, dtype=object),
        is_attack=None if is_attack is None else np.asarray(is_attack, dtype=bool),
        purity=None if purity is None else np.asarray(purity, dtype=float),
    )


class BaseAnomalyDetector(abc.ABC):
    """Abstract base class for all anomaly detectors in this library."""

    #: Human-readable detector name used in evaluation tables.
    name: str = "detector"

    @abc.abstractmethod
    def fit(self, X, y: Optional[Sequence[str]] = None) -> "BaseAnomalyDetector":
        """Train on feature matrix ``X`` with optional string labels ``y``."""

    @abc.abstractmethod
    def score_samples(self, X) -> np.ndarray:
        """Continuous anomaly scores (larger = more anomalous, 1.0 = at threshold)."""

    def predict(self, X) -> np.ndarray:
        """Binary anomaly decisions derived from the normalised scores."""
        return alarm_decisions(self.score_samples(X))

    def predict_category(self, X) -> List[str]:
        """Class labels per sample; defaults to anomaly/normal if no labels were seen."""
        return ["anomaly" if flag else "normal" for flag in self.predict(X)]

    def detect(self, X) -> DetectionResult:
        """Scores, decisions and categories from one scoring pass.

        The base implementation scores once and derives the decisions from the
        scores; detectors whose ``predict_category`` carries real class
        information (an overridden method) are routed through it so the result
        never disagrees with the individual calls.  :class:`GhsomDetector`
        overrides this wholesale with a true single-pass implementation.
        """
        scores = np.asarray(self.score_samples(X), dtype=float)
        predictions = alarm_decisions(scores)
        overridden = type(self).predict_category is not BaseAnomalyDetector.predict_category
        # Labeler-carrying detectors (the SOM/k-means baselines) fall back to
        # the default anomaly/normal labels when fitted without labels; derive
        # those directly from the scores we already have instead of paying
        # their predict_category override a second scoring pass for them.
        unlabeled = hasattr(self, "labeler") and getattr(self, "labeler") is None
        if overridden and not unlabeled:
            categories = self.predict_category(X)
        else:
            categories = _DECISION_CATEGORIES[predictions].tolist()
        return DetectionResult(scores=scores, predictions=predictions, categories=categories)

    def _detect_validated(self, matrix: np.ndarray, *, t_start: float) -> DetectionResult:
        """:meth:`detect` on a matrix ``check_array_2d`` already returned.

        For callers that validate at their own boundary (the streaming
        detector), so a batch is scanned for non-finite values once;
        ``t_start`` is when that validation began.  The default re-enters
        :meth:`detect`.
        """
        return self.detect(matrix)

    def _require_fitted(self, condition: bool) -> None:
        if not condition:
            raise NotFittedError(f"{type(self).__name__} must be fitted before use")


class GhsomDetector(BaseAnomalyDetector):
    """Network-traffic anomaly detector built on a :class:`~repro.core.ghsom.Ghsom`.

    The detector supports the two operating modes used in the paper's
    evaluation:

    * **one-class mode** (``fit`` without labels, typically on normal-only
      traffic): a record is anomalous when its distance to the best matching
      leaf unit exceeds the calibrated threshold;
    * **labelled mode** (``fit`` with labels on mixed traffic): leaf units are
      labelled by majority vote; a record is anomalous when it lands on an
      attack-labelled unit *or* when it exceeds the distance threshold of a
      normal-labelled unit (which catches novel attacks that resemble no
      training class).

    Parameters
    ----------
    config:
        GHSOM growth/training configuration.
    threshold_strategy:
        ``"per_unit"`` (default) or ``"global"``.
    threshold_kwargs:
        Extra arguments for the threshold strategy (``k``, ``percentile``...).
    labeling_strategy:
        Unit labelling rule, ``"majority"`` (default) or ``"purity"``.
    calibrate_on_normal_only:
        When labels are available, calibrate distance thresholds using only
        the normal training records (recommended: attack records otherwise
        inflate the thresholds of mixed units).
    random_state:
        Seed overriding ``config.random_state``.
    serving:
        A full :class:`~repro.serving.config.ServingConfig` describing how
        the detector serves (engine, sharding, artifact options) —
        the declarative equivalent of calling :meth:`configure` right after
        construction.
    """

    name = "ghsom"

    def __init__(
        self,
        config: Optional[GhsomConfig] = None,
        *,
        threshold_strategy: str = "per_unit",
        threshold_kwargs: Optional[Dict[str, object]] = None,
        labeling_strategy: str = "majority",
        calibrate_on_normal_only: bool = True,
        random_state: RandomState = None,
        serving: Optional["ServingConfig"] = None,
    ) -> None:
        from repro.serving.config import ServingConfig

        self.config = config or GhsomConfig()
        self.threshold_strategy_name = threshold_strategy
        self.threshold_kwargs = dict(threshold_kwargs or {})
        self.labeling_strategy = labeling_strategy
        self.calibrate_on_normal_only = calibrate_on_normal_only
        self.random_state = random_state
        #: The declarative serving configuration; :meth:`configure` is the
        #: single mutation path.
        self._serving: "ServingConfig" = ServingConfig()
        self._plan: Optional["ServingPlan"] = None  # cached resolved plan
        self.labeler: Optional[UnitLabeler] = None
        self.threshold_: Optional[object] = None
        self._model: Optional[Ghsom] = None
        #: Deferred tree hydration hook: a v2 model artifact restores the
        #: compiled arrays eagerly and parks the (expensive) ``GhsomNode`` tree
        #: rebuild here; it runs only if ``model`` is actually accessed.
        self._model_loader: Optional[Callable[[], Ghsom]] = None
        #: Compiled snapshot serving in place of ``model.compile()`` — set when
        #: the detector was hydrated from flat arrays; ``None`` means "compile
        #: from the fitted tree".
        self._compiled: Optional[CompiledGhsom] = None
        self._tables: Optional[_LeafTables] = None
        #: Sharded-serving configuration: ``(n_shards, backend)`` when the
        #: serving config is sharded, ``None`` for the unsharded engine.
        #: The spec survives refits — the engine itself is rebuilt lazily
        #: against the new compiled snapshot on the next scoring call.
        self._shard_spec: Optional[Tuple[int, "ShardBackend"]] = None
        self._sharded = None  # the live ShardedGhsom engine, built lazily
        self._apply_serving(serving if serving is not None else ServingConfig())

    # ------------------------------------------------------------------ #
    @property
    def model(self) -> Optional[Ghsom]:
        """The fitted GHSOM tree, hydrating it from a loaded artifact on first use.

        Scoring never touches this: a detector loaded from a v2 artifact
        serves straight from its compiled arrays, and the Python node tree is
        rebuilt lazily only for consumers that genuinely need it (structure
        inspection, refitting workflows).
        """
        if self._model is None and self._model_loader is not None:
            loader, self._model_loader = self._model_loader, None
            self._model = loader()
        return self._model

    @model.setter
    def model(self, value: Optional[Ghsom]) -> None:
        self._model = value
        self._model_loader = None

    @property
    def tree_is_materialized(self) -> bool:
        """Whether the Python ``GhsomNode`` tree currently exists in memory.

        ``False`` for a freshly loaded v2 artifact (even after scoring): the
        serving path runs entirely on the compiled arrays.
        """
        return self._model is not None

    @property
    def is_fitted(self) -> bool:
        has_model = (
            self._model is not None
            or self._model_loader is not None
            or self._compiled is not None
        )
        return has_model and self.threshold_ is not None

    @property
    def is_labeled(self) -> bool:
        """Whether the detector was trained with class labels."""
        return self.labeler is not None

    # ------------------------------------------------------------------ #
    # serving configuration (the single mutation path)
    # ------------------------------------------------------------------ #
    @property
    def serving_config(self) -> "ServingConfig":
        """The declarative :class:`~repro.serving.config.ServingConfig` in force."""
        return self._serving

    def configure(self, config: "ServingConfig") -> "GhsomDetector":
        """Apply a full serving configuration atomically.

        The single mutation path for every serving knob — compute engine,
        sharding, artifact options.  The combined state is validated
        and resolved *before* anything mutates, so a rejected config leaves
        the detector exactly as it was, and the result never depends on the
        order knobs were set in.  Resolution is strict on a fitted
        detector: a ``"fused"`` engine request with no kernel for the
        model's metric raises instead of silently serving slower.
        """
        return self._apply_serving(config)

    def resolved_plan(self) -> "ServingPlan":
        """The :class:`~repro.serving.config.ServingPlan` scoring runs under.

        Resolved non-strictly (the per-batch hot-path policy: an
        unprovidable fused request degrades to numpy) against the fitted
        model's metric, and cached until the config or the model changes.
        """
        if self._plan is None:
            metric = self._compiled_model().metric if self.is_fitted else "euclidean"
            self._plan = self._serving.resolve(metric=metric, strict=False)
        return self._plan

    def _apply_serving(self, config: "ServingConfig", *, backend=None) -> "GhsomDetector":
        """Validate/resolve ``config`` against the current state, then commit.

        ``backend`` carries an already-constructed :class:`ShardBackend`
        instance whose tuning has no declarative form (e.g. a
        ``RemoteBackend`` with custom timeouts); when ``None`` and the plan
        is sharded, the live backend is reused if the sharding spec is
        unchanged, otherwise :meth:`ServingPlan.build_backend` constructs a
        fresh one.  A backend is closed only when it is replaced, so a kept
        remote backend keeps its worker connections; an identical config
        keeps the sharded engine too, and with it the workers' provisioning.
        """
        from repro.serving.config import ServingConfig

        if not isinstance(config, ServingConfig):
            raise ConfigurationError(
                f"configure() needs a ServingConfig, got {type(config).__name__}"
            )
        fitted = self.is_fitted
        metric = self._compiled_model().metric if fitted else "euclidean"
        plan = config.resolve(metric=metric, strict=fitted)
        live = self._shard_spec[1] if self._shard_spec is not None else None
        if backend is None and plan.sharded:
            if config.sharding == self._serving.sharding and live is not None:
                # Unchanged sharding intent keeps the live backend (a remote
                # backend's connections); only the spec changing rebuilds it.
                backend = live
            else:
                backend = plan.build_backend()
        # ---- commit; nothing above mutated detector state ---- #
        if live is not None and live is not backend:
            live.close()
        if backend is not live or config != self._serving:
            # The shards carry the engine; a new config or backend re-slices
            # them lazily against the kept (or new) backend.
            self._sharded = None
        self._serving = config
        self._plan = plan
        self._shard_spec = (int(plan.n_shards), backend) if plan.sharded else None
        return self

    # ------------------------------------------------------------------ #
    # compute engine
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> Optional[str]:
        """The configured compute engine, or ``None`` for the library default."""
        return self._serving.engine

    # ------------------------------------------------------------------ #
    # sharded serving
    # ------------------------------------------------------------------ #
    @property
    def sharding(self) -> Optional[Dict[str, object]]:
        """The active sharded-serving configuration, or ``None`` if unsharded."""
        if self._shard_spec is None:
            return None
        n_shards, backend = self._shard_spec
        return {"n_shards": n_shards, "backend": backend.name, "workers": backend.workers}

    def _serving_engine(self):
        """The engine ``_score_arrays`` descends with: sharded or compiled.

        The sharded engine is rebuilt whenever the compiled snapshot it was
        sliced from is replaced (refit, artifact reload), on the same live
        backend.
        """
        compiled = self._compiled_model()
        if self._shard_spec is None:
            return compiled
        if self._sharded is None or self._sharded.source is not compiled:
            from repro.serving.router import ShardedGhsom

            n_shards, backend = self._shard_spec
            tables = self._leaf_tables()
            self._sharded = ShardedGhsom.from_compiled(
                compiled,
                n_shards,
                backend=backend,
                thresholds=tables.thresholds,
                labels=tables.labels,
                is_attack=tables.is_attack,
                purity=tables.purity,
                engine=self._serving.engine,
            )
        return self._sharded

    # ------------------------------------------------------------------ #
    def fit(self, X, y: Optional[Sequence[str]] = None) -> "GhsomDetector":
        """Train the GHSOM, label its leaves (if ``y`` given) and calibrate thresholds."""
        matrix = check_array_2d(X, "X", min_rows=2)
        labels = None
        if y is not None:
            labels = [str(label) for label in y]
            check_same_length(matrix, labels, "X", "y")
        self._tables = None
        self._compiled = None
        # The spec and its live backend survive; the engine rebuilds lazily.
        self._sharded = None
        self.model = Ghsom(self.config, random_state=self.random_state)
        self.model.fit(matrix)
        compiled = self.model.compile()
        leaf_index, distances = compiled.assign_arrays(matrix)
        leaf_keys = compiled.keys_of(leaf_index)

        if labels is not None:
            self.labeler = UnitLabeler(strategy=self.labeling_strategy)
            self.labeler.fit(leaf_keys, labels)
        else:
            self.labeler = None

        calibration_mask = np.ones(len(distances), dtype=bool)
        if labels is not None and self.calibrate_on_normal_only:
            normal_mask = np.array([label == "normal" for label in labels])
            if normal_mask.any():
                calibration_mask = normal_mask
        strategy = make_threshold_strategy(self.threshold_strategy_name, **self.threshold_kwargs)
        strategy.fit(
            distances[calibration_mask],
            [key for key, keep in zip(leaf_keys, calibration_mask, strict=True) if keep],
        )
        self.threshold_ = strategy
        # The cached plan is host-side only, but the model's metric feeds
        # resolution — recompute lazily.
        self._plan = None
        return self

    # ------------------------------------------------------------------ #
    def _compiled_model(self) -> CompiledGhsom:
        """The compiled snapshot the serving path runs on.

        A detector hydrated from a v2 artifact serves from its stored arrays;
        a tree-backed detector compiles its fitted tree (cached per fit by
        ``Ghsom.compile``).
        """
        if self._compiled is not None:
            return self._compiled
        return self.model.compile()

    def _leaf_tables(self) -> _LeafTables:
        """Compiled leaf lookup tables (built lazily, e.g. after deserialization).

        Rebuilt whenever the compiled model changes, the threshold strategy /
        labeler instance is swapped, or either is refitted *in place* (their
        ``fit_version`` counters move), so sklearn-style recalibration takes
        effect on the next scoring call just as it did on the pre-compiled
        path.
        """
        compiled = self._compiled_model()
        if (
            self._tables is not None
            and self._tables.compiled is compiled
            and self._tables.threshold_source is self.threshold_
            and self._tables.threshold_version == self.threshold_.fit_version
            and self._tables.labeler_source is self.labeler
            and self._tables.labeler_version
            == (0 if self.labeler is None else self.labeler.fit_version)
        ):
            return self._tables
        self._tables = build_leaf_tables(compiled, self.threshold_, self.labeler)
        return self._tables

    def _ingest(self, X):
        """``X`` validated once, as a C-contiguous float64 matrix.

        The engines take the result through ``assign_validated``, so each
        scoring call scans its batch for non-finite values exactly once.
        """
        self._require_fitted(self.is_fitted)
        return check_array_2d(X, "data")

    def _score_arrays(self, matrix):
        """Shared vectorized front half of every scoring method.

        ``matrix`` comes from :meth:`_ingest`.  Returns ``(tables,
        leaf_index, ratios)`` where ``ratios`` are the threshold-normalised
        distances.  This is the *single* descent everything in :meth:`detect`
        derives from.
        """
        tables = self._leaf_tables()
        # The sharded engine (when configured) returns global leaf rows and
        # distances byte-identical to the compiled engine, so everything
        # downstream of this call is oblivious to the partitioning.  The
        # compute-engine choice rides along per call on the compiled engine;
        # the sharded engine carries it in its shard fields (set at build).
        serving = self._serving_engine()
        if isinstance(serving, CompiledGhsom):
            leaf_index, distances = serving.assign_validated(
                matrix, engine=self._serving.engine
            )
        else:
            leaf_index, distances = serving.assign_validated(matrix)
        ratios = distances / tables.thresholds[leaf_index]
        return tables, leaf_index, ratios

    def detect(self, X) -> DetectionResult:
        """Scores, decisions, categories and leaf rows from **one** descent.

        One validation and a single descent feed every output:
        the serving path (CLI ``detect``, :class:`OnlineDetector`, the
        evaluation harness) costs one tree descent per batch instead of the
        three that separate ``predict`` / ``score_samples`` /
        ``predict_category`` calls would pay.  Each individual method is the
        corresponding field of this result.

        The result's :attr:`DetectionResult.stats` carries a
        :class:`~repro.serving.config.ServingStats`: per-stage wall-clock
        timings (ingest / route / descend / merge) plus the resolved
        :class:`~repro.serving.config.ServingPlan` provenance, so serving
        consumers get observability without instrumenting the layers.
        """
        t_start = perf_counter()
        # One validation and one conversion at the boundary; the engines
        # take the matrix as is, so this stays a single-descent, single-scan
        # path (and the timing below cleanly separates ingest from the
        # descent).
        return self._detect_validated(self._ingest(X), t_start=t_start)

    def _detect_validated(self, matrix: np.ndarray, *, t_start: float) -> DetectionResult:
        """:meth:`detect` after ingest; ``t_start`` is when ingest began."""
        from repro.serving.config import ServingStats

        self._require_fitted(self.is_fitted)
        ingest_s = perf_counter() - t_start
        t_score = perf_counter()
        tables, leaf_index, ratios = self._score_arrays(matrix)
        score_s = perf_counter() - t_score
        t_merge = perf_counter()
        if tables.is_attack is None:
            scores = ratios
        else:
            scores = _fold_attack_labels(
                ratios, tables.is_attack[leaf_index], tables.purity[leaf_index]
            )
        predictions = alarm_decisions(scores)
        if tables.labels is None:
            categories = _DECISION_CATEGORIES[predictions].tolist()
        else:
            # Fancy indexing allocates a fresh array, safe for in-place masking
            # once all label masks are computed up front.
            labels = tables.labels[leaf_index]
            over = ratios > 1.0
            unlabeled = labels == UNLABELED
            was_normal = labels == "normal"
            labels[unlabeled & over] = "unknown"
            labels[unlabeled & ~over] = "normal"
            labels[was_normal & over] = "unknown"
            categories = labels.tolist()
        # The sharded router measures its own route / dispatch / merge split;
        # the unsharded engine fuses routing into the descent (route 0.0).
        route_s = shard_merge_s = 0.0
        descend_s = score_s
        router_timings = getattr(self._sharded, "last_timings", None)
        if router_timings:
            route_s = float(router_timings.get("route_s", 0.0))
            shard_merge_s = float(router_timings.get("merge_s", 0.0))
            descend_s = max(score_s - route_s - shard_merge_s, 0.0)
        plan = self.resolved_plan()
        stats = ServingStats(
            n_records=int(matrix.shape[0]),
            engine=plan.engine,
            sharded=self._shard_spec is not None,
            ingest_s=ingest_s,
            route_s=route_s,
            descend_s=descend_s,
            merge_s=shard_merge_s + (perf_counter() - t_merge),
            total_s=perf_counter() - t_start,
            plan=plan.to_dict(),
        )
        return DetectionResult(
            scores=scores,
            predictions=predictions,
            categories=categories,
            leaf_index=leaf_index,
            stats=stats,
        )

    def score_samples(self, X) -> np.ndarray:
        """Threshold-normalised anomaly scores.

        In one-class mode the score is ``distance / leaf threshold``; in
        labelled mode records on attack-labelled leaves additionally receive a
        score above 1.0 graded by the leaf's purity (see
        :func:`combine_label_and_distance_scores`).  In both modes
        ``score > 1.0`` is exactly the alarm condition used by :meth:`predict`.
        """
        tables, leaf_index, ratios = self._score_arrays(self._ingest(X))
        if tables.is_attack is None:
            return ratios
        return _fold_attack_labels(
            ratios, tables.is_attack[leaf_index], tables.purity[leaf_index]
        )

    def predict(self, X) -> np.ndarray:
        """Binary anomaly decisions.

        In labelled mode a record alarms when it lands on an attack-labelled
        leaf or exceeds its leaf's distance threshold; in one-class mode only
        the distance criterion applies.  Both are captured by the combined
        score exceeding 1.0.
        """
        return alarm_decisions(self.score_samples(X))

    def predict_category(self, X) -> List[str]:
        """Per-record class labels (requires labelled training data).

        Records that land on unlabeled leaves, or that exceed the distance
        threshold of a normal-labelled leaf, are reported as ``"unknown"`` —
        they are anomalous but resemble no training class.  Equal to
        ``detect(X).categories``.
        """
        return self.detect(X).categories

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def topology_summary(self) -> Dict[str, object]:
        """Structural statistics of the underlying GHSOM (Table 5)."""
        self._require_fitted(self.is_fitted)
        return self.model.topology_summary()

    def leaf_label_distribution(self) -> Dict[str, int]:
        """Number of leaves per assigned class (labelled mode only)."""
        self._require_fitted(self.is_fitted)
        if self.labeler is None:
            raise ConfigurationError("the detector was trained without labels")
        return self.labeler.class_distribution()
