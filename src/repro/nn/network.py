"""Sequential network container."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import predictions_to_labels


class Sequential:
    """A stack of layers applied in order.

    The container aggregates parameter and gradient dictionaries across its
    layers (prefixing names with the layer index) so optimizers and penalties
    can treat the whole network as one flat parameter set.
    """

    def __init__(self, layers: Optional[Sequence[Layer]] = None):
        self.layers: List[Layer] = list(layers or [])

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer and return self (for chaining)."""
        self.layers.append(layer)
        return self

    def __iter__(self) -> Iterable[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def output_dim(self) -> int:
        """Output dimensionality of the final layer."""
        if not self.layers:
            raise ValueError("network has no layers")
        return self.layers[-1].output_dim

    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run all layers; returns the final layer's output."""
        output = np.asarray(inputs, dtype=float)
        for layer in self.layers:
            output = layer.forward(output, training=training)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate down to the lowest layer that has parameters.

        Fills every parameter gradient and returns dL/d(input) of that lowest
        parametrized layer.  The layers below it have nothing to train, so
        they are skipped: every test-bench network starts with a ``Gather``,
        whose backward would scatter a gradient into the input pixels that
        nothing reads.  A network without parameters returns ``grad_output``.
        """
        lowest = next(
            (i for i, layer in enumerate(self.layers) if layer.params()),
            len(self.layers),
        )
        grad = grad_output
        for layer in reversed(self.layers[lowest:]):
            grad = layer.backward(grad)
        return grad

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Return predicted class labels for a batch of inputs."""
        return predictions_to_labels(self.forward(inputs, training=False))

    # ------------------------------------------------------------------
    def params(self) -> Dict[str, np.ndarray]:
        """All trainable parameters, keyed ``layer{i}.{name}``."""
        merged: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, array in layer.params().items():
                merged[f"layer{i}.{name}"] = array
        return merged

    def grads(self) -> Dict[str, np.ndarray]:
        """All parameter gradients, keyed to match :meth:`params`."""
        merged: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, array in layer.grads().items():
                merged[f"layer{i}.{name}"] = array
        return merged

    def penalized_params(self) -> Dict[str, np.ndarray]:
        """The weight matrices regularization penalties act on."""
        merged: Dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, array in layer.penalized_params().items():
                merged[f"layer{i}.{name}"] = array
        return merged

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array (for checkpointing)."""
        return {name: array.copy() for name, array in self.params().items()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters saved by :meth:`state_dict` (shapes must match)."""
        params = self.params()
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        for name, array in params.items():
            saved = np.asarray(state[name])
            if saved.shape != array.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {saved.shape} vs {array.shape}"
                )
            array[...] = saved
