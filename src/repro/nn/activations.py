"""Activation functions.

Besides the standard activations, this module implements the activation the
paper derives for TrueNorth-constrained training: the expected firing
probability of a McCulloch-Pitts neuron whose input is a sum of independent
Bernoulli-weighted terms (Eq. 10-11),

    E{z'} = P(y' >= 0) = 1 - 0.5 * (1 + erf(-mu / (sqrt(2) * sigma)))
          = 0.5 * (1 + erf(mu / (sqrt(2) * sigma)))

where ``mu`` is the pre-activation mean (the ordinary weighted sum) and
``sigma`` is the standard deviation induced by the stochastic synapses and
spikes.  During training the paper treats sigma as a smoothing constant of the
erf so that the activation stays differentiable; :class:`TrueNorthErf`
implements exactly that.
"""

from __future__ import annotations

import math
from typing import Dict, Type

import numpy as np


class Activation:
    """Base class: elementwise activation with forward and derivative."""

    name = "activation"

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the activation elementwise."""
        raise NotImplementedError

    def backward(self, x: np.ndarray) -> np.ndarray:
        """Return d(activation)/dx evaluated elementwise at ``x``."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Identity(Activation):
    """Linear pass-through (used by output layers feeding a softmax loss)."""

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, x: np.ndarray) -> np.ndarray:
        return np.ones_like(x)


class Relu(Activation):
    """Rectified linear unit."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def backward(self, x: np.ndarray) -> np.ndarray:
        return (x > 0.0).astype(x.dtype)


class Sigmoid(Activation):
    """Logistic sigmoid."""

    name = "sigmoid"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))

    def backward(self, x: np.ndarray) -> np.ndarray:
        s = self.forward(x)
        return s * (1.0 - s)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(self, x: np.ndarray) -> np.ndarray:
        t = np.tanh(x)
        return 1.0 - t * t


class TrueNorthErf(Activation):
    """Spiking-probability activation of Eq. (11).

    ``forward(x) = 0.5 * (1 + erf(x / (sqrt(2) * sigma)))`` — the probability
    that a McCulloch-Pitts neuron with pre-activation mean ``x`` and Gaussian
    input noise of standard deviation ``sigma`` fires.  The output is in
    (0, 1) and is interpreted downstream as the spiking probability of the
    neuron, which is exactly the quantity the next layer's stochastic spikes
    will realize on chip.

    Args:
        sigma: smoothing constant; larger values make the activation softer.
            The paper treats the deployment-induced variance as this constant
            during training.
    """

    name = "truenorth_erf"

    def __init__(self, sigma: float = 1.0):
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.sigma = float(sigma)

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Imported here so that processes that never train (the serve
        # front) do not load scipy.
        from scipy.special import erf  # type: ignore[import-untyped]

        return 0.5 * (1.0 + erf(x / (math.sqrt(2.0) * self.sigma)))

    def backward(self, x: np.ndarray) -> np.ndarray:
        # d/dx [0.5 (1 + erf(x / (sqrt(2) sigma)))] = N(x; 0, sigma^2)
        coeff = 1.0 / (self.sigma * math.sqrt(2.0 * math.pi))
        return coeff * np.exp(-0.5 * (x / self.sigma) ** 2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrueNorthErf(sigma={self.sigma})"


_REGISTRY: Dict[str, Type[Activation]] = {
    Identity.name: Identity,
    Relu.name: Relu,
    Sigmoid.name: Sigmoid,
    Tanh.name: Tanh,
    TrueNorthErf.name: TrueNorthErf,
}


def get_activation(name: str, **kwargs) -> Activation:
    """Instantiate an activation by registry name.

    Raises ``KeyError`` with the list of known names when the name is unknown.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)
