"""Tests for the spike encoders and the spike-count decoder."""

import tracemalloc

import numpy as np
import pytest

from repro.encoding.decoder import SpikeCountDecoder
from repro.encoding.population import PopulationEncoder
from repro.encoding.rank import RankOrderEncoder
from repro.encoding.rate import RateEncoder
from repro.encoding.stochastic import StochasticEncoder
from repro.encoding.time_to_spike import TimeToSpikeEncoder


# --------------------------------------------------------------- stochastic
def test_stochastic_encoder_shape_and_rate():
    encoder = StochasticEncoder(spikes_per_frame=8)
    values = np.full((50, 20), 0.3)
    frames = encoder.encode(values, rng=0)
    assert frames.shape == (8, 50, 20)
    assert frames.dtype == np.uint8
    assert abs(frames.mean() - 0.3) < 0.02
    assert np.allclose(encoder.expected_rate(values), 0.3 * 8)


def test_stochastic_encoder_extremes_are_deterministic():
    encoder = StochasticEncoder(spikes_per_frame=4)
    values = np.array([[0.0, 1.0]])
    frames = encoder.encode(values, rng=0)
    assert np.all(frames[:, 0, 0] == 0)
    assert np.all(frames[:, 0, 1] == 1)


def test_stochastic_encoder_validation():
    with pytest.raises(ValueError):
        StochasticEncoder(0)
    encoder = StochasticEncoder(1)
    with pytest.raises(ValueError):
        encoder.encode(np.array([0.5, 0.5]))  # not 2-D
    with pytest.raises(ValueError):
        encoder.encode(np.array([[1.5]]))
    for bad in (np.nan, np.inf, -np.inf):
        # NaN compares false both ways, so a min/max range test must be
        # written to fail on it; it would otherwise encode as a silent pixel.
        with pytest.raises(ValueError):
            encoder.encode(np.array([[0.5, bad]]))


def _one_shot(values, spikes_per_frame, seed):
    """The whole (spf, batch, features) draw at once, and the generator after it."""
    rng = np.random.default_rng(seed)
    draws = rng.random((spikes_per_frame,) + values.shape)
    return (draws < values).astype(np.uint8), rng


@pytest.mark.parametrize(
    "spikes_per_frame, batch, features",
    [
        (4, 23, 784),  # 10 rows per block: the last block holds 3 rows
        (3, 2, 9000),  # one row wider than the 8,192-draw block
        (2, 3, 8192),  # one row fills the block exactly
        (3, 0, 784),  # batch 0 draws nothing
        (1, 7, 11),  # a single frame
    ],
)
def test_stochastic_encoder_blocks_reproduce_one_shot_draw(
    spikes_per_frame, batch, features
):
    values = np.random.default_rng(1).random((batch, features))
    expected, after = _one_shot(values, spikes_per_frame, seed=7)
    rng = np.random.default_rng(7)
    frames = StochasticEncoder(spikes_per_frame).encode(values, rng=rng)
    assert frames.dtype == np.uint8 and frames.flags.c_contiguous
    assert np.array_equal(frames, expected)
    # The generator ends where the one-shot draw leaves it.
    assert rng.random() == after.random()


def test_stochastic_encoder_writes_into_transposed_uint8_view():
    values = np.random.default_rng(2).random((13, 50))
    expected, _ = _one_shot(values, 4, seed=3)
    volume = np.full((13, 4, 50), 9, dtype=np.uint8)  # (batch, ticks, features)
    written = StochasticEncoder(4).encode(
        values, rng=3, out=volume.transpose(1, 0, 2)
    )
    assert np.shares_memory(written, volume)
    assert np.array_equal(volume, expected.transpose(1, 0, 2))


def test_stochastic_encoder_writes_float32_zeros_and_ones():
    values = np.random.default_rng(2).random((13, 50))
    expected, _ = _one_shot(values, 4, seed=3)
    out = np.full((4, 13, 50), 7.0, dtype=np.float32)
    assert StochasticEncoder(4).encode(values, rng=3, out=out) is out
    assert np.array_equal(out, expected.astype(np.float32))


@pytest.mark.parametrize(
    "out",
    [
        np.empty((4, 13, 51), dtype=np.uint8),
        np.empty((13, 4, 50), dtype=np.uint8),
        np.empty((4, 13, 50), dtype=np.float64),
        np.empty((4, 13, 50), dtype=np.bool_),
    ],
    ids=["shape", "axes", "float64", "bool"],
)
def test_stochastic_encoder_rejects_wrong_out(out):
    values = np.full((13, 50), 0.5)
    with pytest.raises(ValueError):
        StochasticEncoder(4).encode(values, rng=0, out=out)


def test_stochastic_encoder_peak_memory_is_output_plus_one_block():
    values = np.random.default_rng(0).random((200, 784))
    encoder = StochasticEncoder(spikes_per_frame=4)
    tracemalloc.start()
    try:
        frames = encoder.encode(values, rng=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # numpy reports its buffers to tracemalloc, so the peak shows every
    # float64 draw held at once: one 64 KiB block beyond the spikes.
    assert peak < frames.nbytes + 128 * 1024


# --------------------------------------------------------------- rate
def test_rate_encoder_exact_counts_and_roundtrip():
    encoder = RateEncoder(window=8)
    values = np.array([[0.0, 0.25, 0.5, 1.0]])
    frames = encoder.encode(values)
    counts = frames.sum(axis=0)
    assert list(counts[0]) == [0, 2, 4, 8]
    assert np.allclose(encoder.decode(frames), values)


def test_rate_encoder_spreads_spikes_evenly():
    encoder = RateEncoder(window=8)
    frames = encoder.encode(np.array([[0.5]]))
    ticks = np.nonzero(frames[:, 0, 0])[0]
    assert len(ticks) == 4
    gaps = np.diff(ticks)
    assert gaps.max() - gaps.min() <= 1


def test_rate_encoder_validation():
    with pytest.raises(ValueError):
        RateEncoder(0)
    encoder = RateEncoder(4)
    with pytest.raises(ValueError):
        encoder.encode(np.array([[2.0]]))
    with pytest.raises(ValueError):
        encoder.decode(np.zeros((3, 1, 1)))


# --------------------------------------------------------------- population
def test_population_encoder_thermometer_code():
    encoder = PopulationEncoder(population=4)
    bits = encoder.encode(np.array([[0.0, 0.5, 1.0]]))
    assert bits.shape == (1, 12)
    assert list(bits[0, :4]) == [0, 0, 0, 0]
    assert list(bits[0, 4:8]) == [1, 1, 0, 0]
    assert list(bits[0, 8:]) == [1, 1, 1, 1]
    decoded = encoder.decode(bits, feature_count=3)
    assert np.allclose(decoded, [[0.0, 0.5, 1.0]])


def test_population_encoder_validation():
    with pytest.raises(ValueError):
        PopulationEncoder(0)
    encoder = PopulationEncoder(4)
    with pytest.raises(ValueError):
        encoder.decode(np.zeros((1, 7)), feature_count=2)


# --------------------------------------------------------------- time to spike
def test_time_to_spike_larger_values_spike_earlier():
    encoder = TimeToSpikeEncoder(window=8)
    frames = encoder.encode(np.array([[1.0, 0.5, 0.1]]))
    assert frames.sum() == 3
    first_spike = np.argmax(frames[:, 0, :], axis=0)
    assert first_spike[0] < first_spike[1] < first_spike[2]


def test_time_to_spike_zero_behaviour_and_decode():
    encoder = TimeToSpikeEncoder(window=8, spike_for_zero=False)
    frames = encoder.encode(np.array([[0.0, 1.0]]))
    assert frames[:, 0, 0].sum() == 0
    decoded = encoder.decode(frames)
    assert decoded[0, 0] == 0.0
    assert decoded[0, 1] == 1.0


def test_time_to_spike_validation():
    with pytest.raises(ValueError):
        TimeToSpikeEncoder(0)
    with pytest.raises(ValueError):
        TimeToSpikeEncoder(4).decode(np.zeros((3, 1, 1)))


# --------------------------------------------------------------- rank order
def test_rank_order_one_spike_per_feature_in_order():
    encoder = RankOrderEncoder(max_ticks=4)
    values = np.array([[0.9, 0.1, 0.5, 0.7]])
    frames = encoder.encode(values)
    assert frames.sum() == 4
    ranks = encoder.decode_ranks(frames)
    # Larger values must have earlier (smaller) spike ticks.
    assert ranks[0, 0] <= ranks[0, 3] <= ranks[0, 2] <= ranks[0, 1]


def test_rank_order_validation():
    with pytest.raises(ValueError):
        RankOrderEncoder(0)
    with pytest.raises(ValueError):
        RankOrderEncoder(4).encode(np.zeros(3))


# --------------------------------------------------------------- decoder
def test_spike_count_decoder_scores_and_prediction():
    decoder = SpikeCountDecoder(class_assignment=np.array([0, 1, 0, 1]), num_classes=2)
    counts = np.array([[4, 1, 2, 1], [0, 3, 0, 5]])
    scores = decoder.class_scores(counts)
    assert np.allclose(scores, [[3.0, 1.0], [0.0, 4.0]])
    assert list(decoder.predict(counts)) == [0, 1]
    single = decoder.class_scores(np.array([2, 0, 2, 0]))
    assert np.allclose(single, [2.0, 0.0])


def test_spike_count_decoder_validation():
    with pytest.raises(ValueError):
        SpikeCountDecoder(np.array([0, 1]), num_classes=1)
    with pytest.raises(ValueError):
        SpikeCountDecoder(np.array([0, 2]), num_classes=2)
    with pytest.raises(ValueError):
        SpikeCountDecoder(np.array([0, 0]), num_classes=2)  # class 1 empty
    decoder = SpikeCountDecoder(np.array([0, 1]), num_classes=2)
    with pytest.raises(ValueError):
        decoder.class_scores(np.zeros((2, 3)))
