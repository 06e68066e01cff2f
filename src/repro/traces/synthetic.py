"""Synthetic embedding-index generators (Fig 12 b distributions)."""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np


class TraceDistribution(Enum):
    """The access distributions evaluated in the paper."""

    META = "meta"
    ZIPFIAN = "zipfian"
    NORMAL = "normal"
    UNIFORM = "uniform"
    RANDOM = "random"

    @classmethod
    def from_name(cls, name: str) -> "TraceDistribution":
        try:
            return cls(name.lower())
        except ValueError as exc:
            valid = ", ".join(d.value for d in cls)
            raise ValueError(f"unknown distribution {name!r}; expected one of {valid}") from exc


@lru_cache(maxsize=64)
def _zipf_tables(num_embeddings: int, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """The bounded-Zipf CDF and rank permutation of one table shape.

    Neither depends on the trace RNG, so they are built once per
    ``(num_embeddings, alpha)`` and shared read-only by every
    (batch, table) draw.
    """
    ranks = np.arange(1, num_embeddings + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    permutation = np.random.default_rng(num_embeddings).permutation(num_embeddings)
    cdf.setflags(write=False)
    permutation.setflags(write=False)
    return cdf, permutation


@lru_cache(maxsize=64)
def _meta_hot_set(num_embeddings: int, hot_rows: int) -> np.ndarray:
    """The META distribution's seeded hot rows (read-only, built once)."""
    hot_set = np.random.default_rng(num_embeddings + 1).choice(
        num_embeddings, size=hot_rows, replace=False
    )
    hot_set.setflags(write=False)
    return hot_set


def _zipfian_indices(
    rng: np.random.Generator, count: int, num_embeddings: int, alpha: float
) -> np.ndarray:
    """Zipf-distributed indices over [0, num_embeddings).

    A bounded Zipf is sampled by inverse-transform over the normalized
    harmonic weights of the first ``num_embeddings`` ranks; ranks are then
    shuffled deterministically so hot rows are spread across the table (as
    observed in production traces) rather than clustered at index 0.
    """
    cdf, permutation = _zipf_tables(num_embeddings, float(alpha))
    samples = rng.random(count)
    rank_indices = np.searchsorted(cdf, samples, side="left")
    return permutation[rank_indices].astype(np.int64)


def _normal_indices(
    rng: np.random.Generator, count: int, num_embeddings: int, std_fraction: float = 0.15
) -> np.ndarray:
    """Normally distributed indices centred on the middle of the table."""
    center = num_embeddings / 2.0
    std = max(1.0, num_embeddings * std_fraction)
    samples = rng.normal(center, std, size=count)
    return np.clip(np.rint(samples), 0, num_embeddings - 1).astype(np.int64)


def generate_indices(
    distribution: TraceDistribution,
    count: int,
    num_embeddings: int,
    rng: Optional[np.random.Generator] = None,
    zipf_alpha: float = 1.05,
    hot_fraction: float = 0.05,
    hot_probability: float = 0.7,
) -> np.ndarray:
    """Generate ``count`` embedding indices following ``distribution``.

    ``META`` emulates the locality profile of the Meta production traces: a
    small hot set (``hot_fraction`` of the rows) captures
    ``hot_probability`` of the accesses, the rest is a heavy-ish Zipfian
    tail.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if num_embeddings <= 0:
        raise ValueError("num_embeddings must be positive")
    rng = rng or np.random.default_rng(0)
    if count == 0:
        return np.empty(0, dtype=np.int64)

    if distribution is TraceDistribution.UNIFORM:
        # Deterministic round-robin over the table: a perfectly balanced
        # access stream (the paper's best case).
        start = int(rng.integers(0, num_embeddings))
        return ((start + np.arange(count)) % num_embeddings).astype(np.int64)
    if distribution is TraceDistribution.RANDOM:
        return rng.integers(0, num_embeddings, size=count, dtype=np.int64)
    if distribution is TraceDistribution.NORMAL:
        return _normal_indices(rng, count, num_embeddings)
    if distribution is TraceDistribution.ZIPFIAN:
        return _zipfian_indices(rng, count, num_embeddings, zipf_alpha)
    if distribution is TraceDistribution.META:
        hot_rows = max(1, int(num_embeddings * hot_fraction))
        hot_set = _meta_hot_set(num_embeddings, hot_rows)
        is_hot = rng.random(count) < hot_probability
        hot_choice = hot_set[rng.integers(0, hot_rows, size=count)]
        cold_choice = _zipfian_indices(rng, count, num_embeddings, alpha=0.8)
        return np.where(is_hot, hot_choice, cold_choice).astype(np.int64)
    raise ValueError(f"unsupported distribution: {distribution}")


__all__ = ["TraceDistribution", "generate_indices"]
