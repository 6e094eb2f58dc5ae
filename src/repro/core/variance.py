"""Deployment-variance analysis (Eqs. 9-15 of the paper).

The deployed pre-activation is ``y' = sum_i w'_i x'_i`` where the synaptic
weights ``w'_i`` are Bernoulli(p_i)-gated values ``c_i`` and the input spikes
``x'_i`` are Bernoulli(x_i).  This module provides closed-form expressions
for:

* the per-synapse weight variance ``var{w'_i} = c_i^2 p_i (1 - p_i)``
  (Eq. 15), which the biasing penalty minimizes,
* the mean and variance of the weighted-input sum ``y'`` (used by the erf
  activation of Eq. 11 and by the analysis tests),
* the variance of the deviation ``Δy = y' - y`` (Eq. 14),
* the neuron firing probability (Eq. 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


def synaptic_variance(probabilities: np.ndarray, synaptic_values: np.ndarray) -> np.ndarray:
    """Per-synapse variance ``c^2 p (1 - p)`` (Eq. 15)."""
    probabilities = np.asarray(probabilities, dtype=float)
    synaptic_values = np.asarray(synaptic_values, dtype=float)
    if probabilities.size and (
        probabilities.min() < 0.0 or probabilities.max() > 1.0
    ):
        raise ValueError("probabilities must lie in [0, 1]")
    return synaptic_values**2 * probabilities * (1.0 - probabilities)


@dataclass(frozen=True)
class SumStatistics:
    """Mean and variance of the weighted-input sum ``y'`` for one neuron."""

    mean: float
    variance: float

    @property
    def std(self) -> float:
        """Standard deviation of ``y'``."""
        return math.sqrt(max(self.variance, 0.0))


def presynaptic_sum_statistics(
    probabilities: np.ndarray,
    synaptic_values: np.ndarray,
    spike_probabilities: np.ndarray,
) -> SumStatistics:
    """Mean and variance of ``y' = sum_i w'_i x'_i`` for one neuron.

    With ``w'_i = c_i * Bernoulli(p_i)`` and ``x'_i = Bernoulli(x_i)``
    independent,

        E[w'_i x'_i]   = c_i p_i x_i
        E[(w'_i x'_i)^2] = c_i^2 p_i x_i
        var[w'_i x'_i] = c_i^2 p_i x_i (1 - p_i x_i)

    and the terms are independent across ``i`` so the variance of the sum is
    the sum of the variances (Eq. 14 applied to ``y'`` itself).
    """
    probabilities = np.asarray(probabilities, dtype=float).ravel()
    synaptic_values = np.asarray(synaptic_values, dtype=float).ravel()
    spike_probabilities = np.asarray(spike_probabilities, dtype=float).ravel()
    if not (
        probabilities.shape == synaptic_values.shape == spike_probabilities.shape
    ):
        raise ValueError("probabilities, synaptic_values, spike_probabilities must match")
    if probabilities.size and (
        probabilities.min() < 0.0
        or probabilities.max() > 1.0
        or spike_probabilities.min() < 0.0
        or spike_probabilities.max() > 1.0
    ):
        raise ValueError("probabilities and spike_probabilities must lie in [0, 1]")
    joint = probabilities * spike_probabilities
    mean = float(np.sum(synaptic_values * joint))
    variance = float(np.sum(synaptic_values**2 * joint * (1.0 - joint)))
    return SumStatistics(mean=mean, variance=variance)


def deviation_variance(
    probabilities: np.ndarray,
    synaptic_values: np.ndarray,
    spike_probabilities: np.ndarray,
) -> float:
    """Variance of the deviation ``Δy = y' - y`` (Eq. 14).

    ``y`` is deterministic given the trained weights, so
    ``var{Δy} = var{y'}``; the function exists to mirror the paper's notation
    and is used by the analysis tests and the ablation benchmarks.
    """
    return presynaptic_sum_statistics(
        probabilities, synaptic_values, spike_probabilities
    ).variance


def firing_probability(mean: float, std: float, threshold: float = 0.0) -> float:
    """Probability that the neuron spikes, ``P(y' >= threshold)`` (Eq. 11).

    Uses the Gaussian approximation of ``y'`` justified by the central limit
    theorem.  When ``std`` is zero the result degenerates to a step function.
    """
    # Imported here so that importing repro does not load scipy.
    from scipy.special import erf  # type: ignore[import-untyped]

    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    if std == 0.0:
        return 1.0 if mean >= threshold else 0.0
    z = (threshold - mean) / (math.sqrt(2.0) * std)
    return float(1.0 - 0.5 * (1.0 + erf(z)))


def worst_case_probability() -> Tuple[float, float]:
    """Return (p, variance_factor) of the worst-variance connection.

    The per-synapse variance ``c^2 p (1-p)`` is maximized at p = 0.5 with
    value ``0.25 c^2``; returned as a named helper because several benchmarks
    report distance-from-worst-case statistics.
    """
    return 0.5, 0.25


def mean_synaptic_variance(
    probabilities: np.ndarray, synaptic_values: np.ndarray
) -> float:
    """Average per-synapse variance across a weight matrix.

    This is the scalar the biasing penalty drives toward zero; the ablation
    benchmarks report it for Tea, L1, and biased models.
    """
    variances = synaptic_variance(probabilities, synaptic_values)
    if variances.size == 0:
        raise ValueError("cannot average an empty variance array")
    return float(variances.mean())
