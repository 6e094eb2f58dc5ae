"""Stochastic (Bernoulli) spike encoding — Eq. (8) of the paper.

Each input value ``x`` in [0, 1] becomes, on every tick, an independent
Bernoulli(x) spike.  The number of ticks generated per presented sample is
the *spikes per frame* (spf) — the temporal-duplication parameter of the
paper's evaluation (more spf = more samples to average over = higher accuracy
but proportionally longer inference time).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rng import RngLike, new_rng

#: Uniform draws per block: 8,192 float64 (64 KiB).  The encoder draws whole
#: rows at a time through one such block, so its memory beyond the spikes it
#: writes stays at this size whatever the input.
_BLOCK_ELEMENTS = 8192

#: dtypes :meth:`StochasticEncoder.encode` can write into: uint8 spikes, or
#: the float32 0.0/1.0 input of the vectorized engine's GEMM.
_OUT_DTYPES = (np.dtype(np.uint8), np.dtype(np.float32))


class StochasticEncoder:
    """Bernoulli rate encoder.

    Args:
        spikes_per_frame: number of spike samples (ticks) generated per input
            presentation.
    """

    def __init__(self, spikes_per_frame: int = 1):
        if spikes_per_frame <= 0:
            raise ValueError(
                f"spikes_per_frame must be positive, got {spikes_per_frame}"
            )
        self.spikes_per_frame = spikes_per_frame

    def encode(
        self,
        values: np.ndarray,
        rng: RngLike = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Encode a batch of values into spike frames.

        Spikes are ``rng.random((spikes_per_frame, batch, features)) <
        values``, bit for bit, and the generator ends where that one-shot
        draw leaves it.  The draws never materialize at once: they fill one
        reused 64 KiB block of whole rows (a row wider than the block is
        split along its features), in frame, row, feature order, and each
        block's spikes go straight into ``out``.  So encoding frames
        ``a .. b`` and then ``b .. c`` with one generator equals encoding
        ``a .. c``.

        Args:
            values: array of shape (batch, features) with entries in [0, 1].
            rng: randomness source.
            out: optional ``(spikes_per_frame, batch, features)`` array or
                view (any strides) to write the spikes into: uint8, or
                float32 holding 0.0/1.0.

        Returns:
            ``out``, or a fresh C-contiguous uint8 array of shape
            (spikes_per_frame, batch, features).
        """
        values = self._validate(values)
        rng = new_rng(rng)
        shape = (self.spikes_per_frame,) + values.shape
        if out is None:
            out = np.empty(shape, dtype=np.uint8)
        elif out.shape != shape or out.dtype not in _OUT_DTYPES:
            raise ValueError(
                f"out must be a uint8 or float32 array of shape {shape}, "
                f"got {out.dtype} {out.shape}"
            )
        if values.size == 0:
            return out
        target = out.view(np.bool_) if out.dtype == np.uint8 else out
        batch, features = values.shape
        cols = min(features, _BLOCK_ELEMENTS)
        rows = _BLOCK_ELEMENTS // cols
        block = np.empty(rows * cols)
        for frame in range(self.spikes_per_frame):
            for row in range(0, batch, rows):
                for col in range(0, features, cols):
                    tile = values[row : row + rows, col : col + cols]
                    draws = block[: tile.size].reshape(tile.shape)
                    rng.random(out=draws)
                    np.less(
                        draws,
                        tile,
                        out=target[frame, row : row + rows, col : col + cols],
                    )
        return out

    def _validate(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D (batch, features), got {values.shape}")
        # Written so that NaN, for which every comparison is false, fails.
        if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
            raise ValueError("values must lie in [0, 1]")
        return values

    def expected_rate(self, values: np.ndarray) -> np.ndarray:
        """Expected number of spikes per feature over one frame."""
        return np.asarray(values, dtype=float) * self.spikes_per_frame
