"""Placement of corelets onto the physical core grid of a chip or board.

Placement assigns each corelet (of each copy) a physical core.  The paper's
results do not depend on *where* cores are placed — only on how many are
occupied — but a placement step is part of any real TrueNorth deployment,
so the reproduction provides a simple locality-aware strategy (copies are
placed in row-major order, layers of one copy kept contiguous) and reports
mesh-distance statistics that the ablation benchmarks use.

Board placement (:func:`place_on_board`) extends the strategy to a mesh of
chips: each copy's layers are packed onto as few chips as possible — a copy
that fits one chip is never split (first-fit over the chips, so one chip
stacks as many whole copies as its capacity allows), while a copy larger
than one chip claims consecutive fully-empty chips and is sharded across
them in layer-major corelet order.  A chip therefore hosts *either* whole
copies *or* one shard of a split copy, never both, so every chip is one
chip image — one flat corelet range of a tuple of copies, the full range
for whole copies and a sub-range for a shard — and repeats fold onto the
placement by stacking each placed copy's instances on its chips (see
:mod:`repro.mapping.pipeline`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.board.topology import BoardConfig
from repro.mapping.corelet import CoreletNetwork
from repro.truenorth.config import ChipConfig


@dataclass
class ChipPlacement:
    """Assignment of logical corelets to physical core coordinates.

    Attributes:
        grid_shape: shape of the physical core grid (derived from the chip
            configuration by :func:`place_on_chip` — never assumed).
        assignments: mapping ``(copy, layer, corelet_index) -> (row, col)``.
    """

    grid_shape: Tuple[int, int]
    assignments: Dict[Tuple[int, int, int], Tuple[int, int]] = field(
        default_factory=dict
    )

    @property
    def occupied_cores(self) -> int:
        """Number of physical cores occupied."""
        return len(self.assignments)

    def position(self, copy: int, layer: int, corelet_index: int) -> Tuple[int, int]:
        """Physical (row, col) of one corelet."""
        return self.assignments[(copy, layer, corelet_index)]

    def max_interlayer_distance(self) -> int:
        """Largest Manhattan distance between consecutive-layer corelets.

        A coarse congestion proxy: spikes between adjacent layers travel at
        most this many mesh hops under the simple row-major placement.
        """
        best = 0
        by_copy_layer: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for (copy, layer, _), pos in self.assignments.items():
            by_copy_layer.setdefault((copy, layer), []).append(pos)
        for (copy, layer), positions in by_copy_layer.items():
            next_positions = by_copy_layer.get((copy, layer + 1))
            if not next_positions:
                continue
            for row_a, col_a in positions:
                for row_b, col_b in next_positions:
                    best = max(best, abs(row_a - row_b) + abs(col_a - col_b))
        return best


def place_on_chip(
    corelet_network: CoreletNetwork,
    copies: int = 1,
    chip_config: ChipConfig = ChipConfig(),
) -> ChipPlacement:
    """Place ``copies`` instances of a corelet network onto one chip.

    Corelets are assigned to physical cores in row-major order, copy by copy
    and layer by layer, which keeps each copy's layers contiguous.  Raises
    ``RuntimeError`` when the chip does not have enough cores.
    """
    if copies <= 0:
        raise ValueError(f"copies must be positive, got {copies}")
    rows, cols = chip_config.grid_shape
    capacity = rows * cols
    needed = copies * corelet_network.core_count
    if needed > capacity:
        raise RuntimeError(
            f"deployment needs {needed} cores but the chip has only {capacity}"
        )
    placement = ChipPlacement(grid_shape=(rows, cols))
    slot = 0
    for copy in range(copies):
        for layer, layer_corelets in enumerate(corelet_network.corelets):
            for corelet_index in range(len(layer_corelets)):
                placement.assignments[(copy, layer, corelet_index)] = (
                    slot // cols,
                    slot % cols,
                )
                slot += 1
    return placement


@dataclass(frozen=True)
class BoardSegment:
    """One independently simulable unit of a board placement.

    A segment is either a set of *whole* copies stacked on one chip
    (``split=False``, one chip) or one copy *split* across several
    consecutive chips (``split=True``, one shard per chip).  Segments never
    exchange spikes with each other — inter-chip traffic only occurs
    between the shard chips of one split copy — which is what makes them
    the sharding unit of the serving tier.

    Attributes:
        chips: board chip indices the segment occupies, in shard order.
        copies: global copy indices hosted (ascending; a split segment
            hosts exactly one).
        split: whether one copy spans ``len(chips) > 1`` chips.
        shard_bounds: for split segments, boundaries into the copy's flat
            layer-major corelet enumeration — shard ``i`` (on
            ``chips[i]``) hosts corelets ``[shard_bounds[i],
            shard_bounds[i + 1])``.  Empty for whole segments.
    """

    chips: Tuple[int, ...]
    copies: Tuple[int, ...]
    split: bool
    shard_bounds: Tuple[int, ...] = ()


@dataclass
class BoardPlacement:
    """Assignment of logical corelets to (chip, core slot) across a board.

    Attributes:
        board_shape: ``(rows, cols)`` of the chip mesh.
        chip_grid: core grid of each chip (derived from the board's chip
            configuration).
        assignments: mapping ``(copy, layer, corelet_index) -> (chip, row,
            col)`` with (row, col) on the hosting chip's core grid.
        segments: the independently simulable units (see
            :class:`BoardSegment`), sorted by first chip index.
    """

    board_shape: Tuple[int, int]
    chip_grid: Tuple[int, int]
    assignments: Dict[Tuple[int, int, int], Tuple[int, int, int]] = field(
        default_factory=dict
    )
    segments: List[BoardSegment] = field(default_factory=list)

    @property
    def occupied_cores(self) -> int:
        """Number of physical cores occupied across the board."""
        return len(self.assignments)

    @property
    def copy_count(self) -> int:
        """Number of copies the placement hosts."""
        return sum(len(segment.copies) for segment in self.segments)

    def chip_of(self, copy: int, layer: int, corelet_index: int) -> int:
        """Board index of the chip hosting one corelet."""
        return self.assignments[(copy, layer, corelet_index)][0]

    def chip_position(self, index: int) -> Tuple[int, int]:
        """(row, col) of a chip on the board grid (row-major indexing)."""
        return index // self.board_shape[1], index % self.board_shape[1]

    def per_chip_occupation(self) -> Dict[int, int]:
        """Occupied core slots per chip (chips stacking ``k`` whole copies
        of an ``n``-core network occupy ``k * n`` slots)."""
        occupation: Dict[int, int] = {}
        for chip, _, _ in self.assignments.values():
            occupation[chip] = occupation.get(chip, 0) + 1
        return occupation

    def occupied_chips(self) -> int:
        """Number of chips hosting at least one corelet."""
        return len({chip for chip, _, _ in self.assignments.values()})

    def split_copies(self) -> Tuple[int, ...]:
        """Copies that span more than one chip, ascending."""
        return tuple(
            sorted(
                segment.copies[0] for segment in self.segments if segment.split
            )
        )

    def transition_chip_distances(self, copy: int) -> List[int]:
        """Worst chip distance per layer transition of one copy.

        Entry ``l`` is the largest Manhattan chip distance between any
        layer-``l`` corelet and any layer-``l + 1`` corelet of the copy —
        the worst mesh path a spike of that transition can take, and hence
        the exact per-transition term of the board-wide drain bound.  All
        zeros for a copy kept on one chip.
        """
        by_layer: Dict[int, List[int]] = {}
        for (c, layer, _), (chip, _, _) in self.assignments.items():
            if c == copy:
                by_layer.setdefault(layer, []).append(chip)
        distances: List[int] = []
        for layer in range(len(by_layer) - 1):
            best = 0
            for a in by_layer[layer]:
                for b in by_layer[layer + 1]:
                    row_a, col_a = self.chip_position(a)
                    row_b, col_b = self.chip_position(b)
                    best = max(best, abs(row_a - row_b) + abs(col_a - col_b))
            distances.append(best)
        return distances

    def mesh_statistics(self) -> Dict[str, int]:
        """Inter-chip traffic statistics of the placement.

        Returns a dict with:

        * ``split_copies`` — copies spanning more than one chip;
        * ``boundary_transitions`` — (copy, layer transition) pairs whose
          spikes cross at least one chip boundary;
        * ``max_chip_distance`` — worst Manhattan chip distance any
          inter-layer spike can travel.
        """
        split = self.split_copies()
        boundary = 0
        max_distance = 0
        for copy in split:
            for distance in self.transition_chip_distances(copy):
                if distance > 0:
                    boundary += 1
                    max_distance = max(max_distance, distance)
        return {
            "split_copies": len(split),
            "boundary_transitions": boundary,
            "max_chip_distance": max_distance,
        }


def place_on_board(
    corelet_network: CoreletNetwork,
    copies: int = 1,
    board_config: BoardConfig = BoardConfig(),
) -> BoardPlacement:
    """Place ``copies`` instances of a corelet network onto a chip mesh.

    Each copy's layers are packed onto as few chips as possible:

    * a copy that fits one chip is placed whole, first-fit over the chips
      in board order (so chips stack as many whole copies as capacity
      allows, and later copies back-fill earlier chips);
    * a copy larger than one chip claims the first run of consecutive
      fully-empty chips and is sharded across them in layer-major corelet
      order; its chips are reserved entirely (no back-fill), so a chip
      hosts either whole copies or one shard — never both.

    Within a chip, corelets occupy core slots row-major from the chip's
    next free slot in assignment order, matching the physical ids
    :meth:`~repro.truenorth.chip.TrueNorthChip.allocate_core` hands out
    when the runtime programs the board.

    Raises ``RuntimeError`` when the board cannot fit the deployment.
    """
    if copies <= 0:
        raise ValueError(f"copies must be positive, got {copies}")
    chip_rows, chip_cols = board_config.chip_config.grid_shape
    capacity = chip_rows * chip_cols
    chip_count = board_config.chip_count
    per_copy = corelet_network.core_count
    flat_corelets = [
        (layer, corelet_index)
        for layer, layer_corelets in enumerate(corelet_network.corelets)
        for corelet_index in range(len(layer_corelets))
    ]

    free = [capacity] * chip_count
    placement = BoardPlacement(
        board_shape=board_config.grid_shape, chip_grid=(chip_rows, chip_cols)
    )
    whole_by_chip: Dict[int, List[int]] = {}

    def assign(copy: int, chip: int, corelets, base_slot: int) -> None:
        for offset, (layer, corelet_index) in enumerate(corelets):
            slot = base_slot + offset
            placement.assignments[(copy, layer, corelet_index)] = (
                chip,
                slot // chip_cols,
                slot % chip_cols,
            )

    for copy in range(copies):
        if per_copy <= capacity:
            chip = next((i for i in range(chip_count) if free[i] >= per_copy), None)
            if chip is None:
                raise RuntimeError(
                    f"copy {copy} needs {per_copy} cores but no chip of the "
                    f"{board_config.grid_shape} board has that many free "
                    f"({copies} copies x {per_copy} cores on "
                    f"{chip_count} x {capacity}-core chips)"
                )
            assign(copy, chip, flat_corelets, capacity - free[chip])
            free[chip] -= per_copy
            whole_by_chip.setdefault(chip, []).append(copy)
        else:
            shards = math.ceil(per_copy / capacity)
            start = next(
                (
                    i
                    for i in range(chip_count - shards + 1)
                    if all(free[i + j] == capacity for j in range(shards))
                ),
                None,
            )
            if start is None:
                raise RuntimeError(
                    f"copy {copy} needs {shards} consecutive empty chips "
                    f"({per_copy} cores at {capacity} per chip) but the "
                    f"{board_config.grid_shape} board has no such run"
                )
            bounds = [0]
            for shard in range(shards):
                lo = shard * capacity
                hi = min(lo + capacity, per_copy)
                assign(copy, start + shard, flat_corelets[lo:hi], 0)
                # A split copy reserves its chips entirely: no whole copy
                # may back-fill the partially used last shard chip.
                free[start + shard] = 0
                bounds.append(hi)
            placement.segments.append(
                BoardSegment(
                    chips=tuple(range(start, start + shards)),
                    copies=(copy,),
                    split=True,
                    shard_bounds=tuple(bounds),
                )
            )

    for chip in sorted(whole_by_chip):
        placement.segments.append(
            BoardSegment(
                chips=(chip,),
                copies=tuple(whole_by_chip[chip]),
                split=False,
            )
        )
    placement.segments.sort(key=lambda segment: segment.chips[0])
    return placement
