"""KDD-style network connection datasets: schema, generation, loading, preprocessing."""

from repro.data.schema import (
    ATTACK_CATEGORIES,
    ATTACK_TO_CATEGORY,
    CATEGORICAL_FEATURES,
    FEATURE_NAMES,
    KddSchema,
    attack_category,
)
from repro.data.records import Dataset
from repro.data.synthetic import ClassProfile, KddSyntheticGenerator, default_profiles
from repro.data.loader import load_csv, save_csv, stratified_split, train_test_split
from repro.data.preprocess import (
    MinMaxScaler,
    OneHotEncoder,
    OrdinalEncoder,
    PreprocessingPipeline,
    StandardScaler,
)
from repro.data.features import (
    correlation_matrix,
    select_by_variance,
    feature_entropy,
    select_top_k_by_entropy,
)

__all__ = [
    "ATTACK_CATEGORIES",
    "ATTACK_TO_CATEGORY",
    "CATEGORICAL_FEATURES",
    "FEATURE_NAMES",
    "KddSchema",
    "attack_category",
    "Dataset",
    "ClassProfile",
    "KddSyntheticGenerator",
    "default_profiles",
    "load_csv",
    "save_csv",
    "stratified_split",
    "train_test_split",
    "MinMaxScaler",
    "OneHotEncoder",
    "OrdinalEncoder",
    "PreprocessingPipeline",
    "StandardScaler",
    "correlation_matrix",
    "select_by_variance",
    "feature_entropy",
    "select_top_k_by_entropy",
]
