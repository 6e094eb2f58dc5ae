"""Multi-chip board simulation: a mesh of TrueNorth chips with link delays.

The package models an NS16e-style board as a grid of
:class:`~repro.truenorth.chip.TrueNorthChip` instances joined by mesh
links (:class:`~repro.board.board.Board`); a spike crossing a chip
boundary pays ``link_delay`` ticks per chip hop on top of the on-chip
router delay, and the exact latency/drain model of the single-chip
pipeline extends board-wide.  Every programmed board chip holds one
multi-copy chip image, exactly like the single-chip engine, and repeats
fold onto one placement.  Placement and the inference drivers for
boards live in :mod:`repro.mapping.placement`
(:func:`~repro.mapping.placement.place_on_board`) and
:mod:`repro.mapping.pipeline`
(:func:`~repro.mapping.pipeline.run_board_inference_multicopy`); the
``board`` evaluation backend in :mod:`repro.api` drives them.
"""

from repro.board.board import Board, LinkFabric
from repro.board.topology import BoardConfig, board_shape_for

__all__ = [
    "Board",
    "LinkFabric",
    "BoardConfig",
    "board_shape_for",
]
