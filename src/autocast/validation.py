"""Input validation helpers shared by metrics and forecasters."""
from __future__ import annotations

import numpy as np


def as_float_vector(x, name: str = "values") -> np.ndarray:
    """Coerce to a 1-D float array, rejecting empty or non-finite input."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_paired_vectors(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    """Validate an (actual, predicted) pair of equal-length vectors."""
    a = as_float_vector(actual, "actual")
    p = as_float_vector(predicted, "predicted")
    if a.size != p.size:
        raise ValueError(f"length mismatch: actual has {a.size}, predicted has {p.size}")
    return a, p
