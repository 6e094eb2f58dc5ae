"""Mapping trained models onto neuro-synaptic cores.

The deployment path of the paper is: train a model whose weights are
connectivity probabilities (``repro.core``), partition the input image into
blocks — one per core — by a stride (``blocks``), convert each block's weight
matrix into Bernoulli-sampled crossbar connectivity (``deploy``), optionally
instantiate several spatial copies whose outputs are merged (``duplication``),
place the resulting corelets onto a chip (``placement``), and run spikes
through them (either the fast vectorized evaluator in ``deploy`` or the full
chip simulator via ``pipeline``).
"""

from repro.mapping.blocks import BlockPartition, stride_blocks
from repro.mapping.corelet import Corelet, CoreletNetwork, build_corelets
from repro.mapping.deploy import DeployedNetwork, sample_connectivity, deploy_model
from repro.mapping.duplication import DuplicatedDeployment, deploy_with_copies
from repro.mapping.placement import (
    BoardPlacement,
    BoardSegment,
    ChipPlacement,
    place_on_board,
    place_on_chip,
)
from repro.mapping.pipeline import (
    BoardProgram,
    board_spike_counters,
    program_board_multicopy,
    program_chip,
    program_chip_multicopy,
    run_board_inference_multicopy,
    run_chip_inference,
    run_chip_inference_multicopy,
)

__all__ = [
    "BlockPartition",
    "stride_blocks",
    "Corelet",
    "CoreletNetwork",
    "build_corelets",
    "DeployedNetwork",
    "sample_connectivity",
    "deploy_model",
    "DuplicatedDeployment",
    "deploy_with_copies",
    "ChipPlacement",
    "place_on_chip",
    "BoardPlacement",
    "BoardSegment",
    "place_on_board",
    "BoardProgram",
    "board_spike_counters",
    "program_board_multicopy",
    "program_chip",
    "program_chip_multicopy",
    "run_board_inference_multicopy",
    "run_chip_inference",
    "run_chip_inference_multicopy",
]
