"""Shared typing aliases for the strict-typed modules.

``mypy --strict`` (see ``mypy.ini``) forbids bare generics, so ``np.ndarray``
annotations need explicit parameters.  The serving stack intentionally types
arrays loosely — dtypes are a *runtime* contract (float64 samples and
codebooks, integer topology and leaf tables, memory-mapped or not), so
pinning them in the type system would force casts at every call site.
"""

from __future__ import annotations

from typing import Any

import numpy.typing as npt

#: Any numpy array; the dtype contract is enforced at runtime by
#: ``check_array_2d`` and the serialization schema, not by the type checker.
AnyArray = npt.NDArray[Any]
