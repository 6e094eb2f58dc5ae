"""Property tests for the serve wire codec.

The protocol promise is *losslessness*: any :class:`EvalRequest` the
protocol allows survives ``encode → json.dumps → json.loads → decode``
with every field intact (models and datasets round-trip by registry name),
and any :class:`EvalResult` whose scores are exact class means (every
backend's are) survives its result frame **bit-identically**: a JSON
header, then the arrays' raw little-endian bytes, with the scores sent as
the integer counts they are made of.  Hypothesis drives the field
combinations, including multi-point (copies, spf) grids and the chip-only
capability flags.  A result the wire cannot rebuild exactly is refused at
encode, and a frame that is malformed or contradicts itself is refused at
decode with a :class:`CodecError` naming the field.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EvalRequest, EvalResult
from repro.serve.codec import (
    CodecError,
    UnknownDatasetError,
    UnknownModelError,
    decode_request,
    decode_result,
    encode_request,
    encode_result,
    read_frame,
    to_eval_request,
)


class FakeRegistry:
    """Name resolution without training anything: sentinel objects.

    ``EvalRequest`` never inspects the model/dataset objects at construction
    time, so identity round-tripping is exactly what the codec must provide.
    """

    def __init__(self):
        self.models = {"tea": object(), "biased": object()}
        self.datasets = {"test": object(), "test-full": object()}

    def model(self, name):
        try:
            return self.models[name]
        except KeyError:
            raise UnknownModelError(f"unknown model {name!r}") from None

    def dataset(self, name):
        try:
            return self.datasets[name]
        except KeyError:
            raise UnknownDatasetError(f"unknown dataset {name!r}") from None


REGISTRY = FakeRegistry()

levels = st.lists(
    st.integers(min_value=1, max_value=64), min_size=1, max_size=4, unique=True
)
request_fields = st.fixed_dictionaries(
    {
        "model": st.sampled_from(sorted(REGISTRY.models)),
        "dataset": st.sampled_from(sorted(REGISTRY.datasets)),
        "backend": st.sampled_from([None, "vectorized", "chip", "reference"]),
        "copy_levels": levels,
        "spf_levels": levels,
        "repeats": st.integers(min_value=1, max_value=8),
        "seed": st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
        "max_samples": st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
        "collect_spike_counters": st.booleans(),
        "router_delay": st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        "stochastic_synapses": st.booleans(),
        "link_delay": st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
    }
)


@settings(max_examples=200, deadline=None)
@given(fields=request_fields)
def test_request_roundtrip_is_lossless(fields):
    """EvalRequest -> wire JSON -> EvalRequest preserves every field."""
    request = EvalRequest(
        model=REGISTRY.model(fields["model"]),
        dataset=REGISTRY.dataset(fields["dataset"]),
        copy_levels=tuple(fields["copy_levels"]),
        spf_levels=tuple(fields["spf_levels"]),
        repeats=fields["repeats"],
        seed=fields["seed"],
        max_samples=fields["max_samples"],
        collect_spike_counters=fields["collect_spike_counters"],
        router_delay=fields["router_delay"],
        stochastic_synapses=fields["stochastic_synapses"],
        link_delay=fields["link_delay"],
    )
    payload = encode_request(
        request, fields["model"], fields["dataset"], backend=fields["backend"]
    )
    over_the_wire = json.loads(json.dumps(payload))
    wire = decode_request(over_the_wire)
    assert wire.backend == fields["backend"]
    decoded = to_eval_request(wire, REGISTRY)
    assert decoded == request
    assert decoded.model is request.model
    assert decoded.dataset is request.dataset


array_shapes = st.tuples(
    st.integers(1, 3),  # repeats
    st.integers(1, 3),  # copy levels
    st.integers(1, 3),  # spf levels
    st.integers(1, 5),  # batch
    st.integers(2, 4),  # classes
)


@settings(max_examples=100, deadline=None)
@given(
    shape=array_shapes,
    seed=st.integers(min_value=0, max_value=2**31),
    peak=st.sampled_from([0, 1, 229, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**50]),
    with_counters=st.booleans(),
)
def test_result_roundtrip_is_bit_identical(shape, seed, peak, with_counters):
    """EvalResult -> result frame -> EvalResult is exact to the last bit."""
    repeats, n_copies, n_spf, batch, classes = shape
    rng = np.random.default_rng(seed)
    n_k = rng.integers(1, 9, size=classes).astype(np.int64)
    counts = rng.integers(0, peak + 1, size=shape).astype(np.int64)
    accuracy = rng.random((repeats, n_copies, n_spf))
    spike_counters = (
        rng.integers(0, 50, size=(repeats, n_copies, 2, batch)).astype(np.int64)
        if with_counters
        else None
    )
    result = EvalResult(
        backend="vectorized",
        copy_levels=tuple(range(1, n_copies + 1)),
        spf_levels=tuple(range(1, n_spf + 1)),
        scores=counts / n_k,
        accuracy=accuracy,
        labels=rng.integers(0, classes, size=batch).astype(np.int64),
        class_neuron_counts=n_k,
        cores=(np.arange(n_copies, dtype=np.int64) + 1) * 4,
        seed=None if seed % 2 else seed,
        repeats=repeats,
        spike_counters=spike_counters,
    )
    decoded = decode_result(encode_result(result))
    for name in ("scores", "accuracy", "labels", "class_neuron_counts", "cores"):
        original, roundtripped = getattr(result, name), getattr(decoded, name)
        assert original.dtype == roundtripped.dtype
        assert original.shape == roundtripped.shape
        assert original.tobytes() == roundtripped.tobytes()
    assert np.array_equal(decoded.class_counts(), result.class_counts())
    if with_counters:
        assert decoded.spike_counters.tobytes() == spike_counters.tobytes()
    else:
        assert decoded.spike_counters is None
    assert decoded.copy_levels == result.copy_levels
    assert decoded.spf_levels == result.spf_levels
    assert decoded.backend == result.backend
    assert decoded.seed == result.seed
    assert decoded.repeats == result.repeats


def _counts_result(counts, n_k=(1, 1)):
    """A one-repeat, one-level result over ``counts`` of shape (batch, classes)."""
    counts = np.asarray(counts, dtype=np.int64).reshape((1, 1, 1) + np.shape(counts))
    n_k = np.asarray(n_k, dtype=np.int64)
    return EvalResult(
        backend="chip",
        copy_levels=(1,),
        spf_levels=(1,),
        scores=counts / n_k,
        accuracy=np.zeros((1, 1, 1)),
        labels=np.zeros(counts.shape[3], dtype=np.int64),
        class_neuron_counts=n_k,
        cores=np.array([4], dtype=np.int64),
        seed=0,
        repeats=1,
    )


@pytest.mark.parametrize(
    "peak, dtype",
    [
        (0, "int16"),
        (2**15 - 1, "int16"),
        (2**15, "int32"),
        (2**31 - 1, "int32"),
        (2**31, "int64"),
    ],
)
def test_counts_travel_in_the_narrowest_integer_dtype(peak, dtype):
    frame = encode_result(_counts_result([[0, peak]]))
    header, _ = read_frame(frame)
    assert header["counts"] == {"dtype": dtype, "shape": [1, 1, 1, 1, 2]}
    assert "scores" not in header
    decoded = decode_result(frame)
    assert decoded.class_counts().tolist() == [[[[[0, peak]]]]]
    assert decoded.scores.dtype == np.float64


def test_scores_that_are_not_exact_class_means_are_refused_at_encode():
    """Scores that ``counts / n_k`` would not rebuild bit for bit (a float
    sum of per-frame means can be off in the last bit) are a server fault:
    a plain ``ValueError`` (500), never a ``CodecError`` (400)."""
    exact = _counts_result([[3, 0]], n_k=(3, 1))
    off_by_one_ulp = np.nextafter(exact.scores, 2.0)
    cases = [
        replace(exact, scores=off_by_one_ulp),  # a last-bit difference
        replace(exact, scores=exact.scores + 0.25),  # not a multiple of 1/n_k
        replace(exact, scores=-exact.scores),  # negative counts
        replace(exact, scores=exact.scores.astype(np.float32)),  # not float64
        replace(exact, class_neuron_counts=np.array([0, 1])),  # n_k below 1
    ]
    for bad in cases:
        with pytest.raises(ValueError) as excinfo:
            encode_result(bad)
        assert not isinstance(excinfo.value, CodecError)
    assert read_frame(encode_result(exact))[0]["counts"]["dtype"] == "int16"


#: A valid result (repeats=1, copies (1, 2), spf (1,), batch 3, two
#: classes): its scalar header fields, then its arrays in frame order.
_FIELDS = {
    "backend": "chip",
    "copy_levels": [1, 2],
    "spf_levels": [1],
    "seed": 0,
    "repeats": 1,
    "counts": np.arange(12, dtype=np.int16).reshape(1, 2, 1, 3, 2),
    "accuracy": np.zeros((1, 2, 1)),
    "labels": np.array([0, 1, 0], dtype=np.int64),
    "class_neuron_counts": np.array([2, 3], dtype=np.int64),
    "cores": np.array([4, 8], dtype=np.int64),
    "spike_counters": None,
}


def _frame(header=None, **changes):
    """A result frame of ``_FIELDS`` with ``changes`` applied, packed here
    rather than by the codec: an array field is sent as its descriptor in
    the header plus its bytes, anything else as a header value.  A
    ``header`` dict replaces the packed header wholesale."""
    fields = {**_FIELDS, **changes}
    packed = {}
    chunks = []
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            packed[name] = {"dtype": value.dtype.name, "shape": list(value.shape)}
            chunks.append(value.astype(value.dtype.newbyteorder("<")).tobytes())
        else:
            packed[name] = value
    head = json.dumps(packed if header is None else header).encode("utf-8")
    return len(head).to_bytes(4, "little") + head + b"".join(chunks)


def _assert_rejected(frame, match, field):
    with pytest.raises(CodecError, match=match) as excinfo:
        decode_result(frame)
    assert excinfo.value.field == field


def test_frame_layout_is_a_json_header_then_the_raw_arrays():
    """The encoder writes exactly the documented layout: a 4-byte
    little-endian header length, the UTF-8 JSON header, then each array's
    little-endian C-order bytes in field order, and nothing after."""
    n_k = _FIELDS["class_neuron_counts"]
    counts = _FIELDS["counts"]
    result = EvalResult(
        backend="chip",
        copy_levels=(1, 2),
        spf_levels=(1,),
        scores=counts / n_k,
        accuracy=_FIELDS["accuracy"],
        labels=_FIELDS["labels"],
        class_neuron_counts=n_k,
        cores=_FIELDS["cores"],
        seed=0,
        repeats=1,
    )
    frame = encode_result(result)
    length = int.from_bytes(frame[:4], "little")
    header = json.loads(frame[4 : 4 + length].decode("utf-8"))
    assert header == read_frame(_frame())[0]
    assert frame[4 + length :] == b"".join(
        _FIELDS[name].tobytes()
        for name in ("counts", "accuracy", "labels", "class_neuron_counts", "cores")
    )


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"accuracy": np.zeros(5)}, "accuracy"),
        ({"labels": np.zeros(7, dtype=np.int64)}, "counts"),
        ({"cores": np.array([4], dtype=np.int64)}, "cores"),
        (
            {"class_neuron_counts": np.zeros(2, dtype=np.int64)},
            "class_neuron_counts",
        ),
        ({"repeats": 9}, "counts"),
        ({"copy_levels": [1, 2, 4]}, "counts"),
        ({"spf_levels": [1, 2]}, "counts"),
        ({"counts": -np.ones((1, 2, 1, 3, 2), dtype=np.int64)}, "counts"),
        ({"counts": np.zeros((1, 2, 1, 3, 2))}, "counts"),
        ({"class_neuron_counts": np.array([2.0, 3.0])}, "class_neuron_counts"),
        ({"labels": np.zeros((3, 1), dtype=np.int64)}, "labels"),
        (
            {"spike_counters": np.zeros((1, 2, 4, 7), dtype=np.int64)},
            "spike_counters",
        ),
        (
            {"spike_counters": np.zeros((1, 1, 4, 3), dtype=np.int64)},
            "spike_counters",
        ),
    ],
)
def test_self_contradicting_result_is_rejected(changes, field):
    decode_result(_frame())  # the unchanged frame decodes
    counters = np.zeros((1, 2, 4, 3), dtype=np.int64)
    decoded = decode_result(_frame(spike_counters=counters))
    assert decoded.spike_counters.shape == (1, 2, 4, 3)
    with pytest.raises(CodecError) as excinfo:
        decode_result(_frame(**changes))
    assert excinfo.value.field == field


@settings(max_examples=80, deadline=None)
@given(
    cores=st.integers(0, 4),
    batch=st.integers(0, 4),
    dtype=st.sampled_from([">f8", "<f8", ">i8", "<i8", "<i4", ">i2", "bool"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_array_roundtrip_any_shape_and_dtype(cores, batch, dtype, seed):
    """Every wire dtype, in either byte order, zero-size shapes, a NaN
    payload and a signed zero cross a frame bit for bit (the spike
    counters and the accuracy carry them)."""
    rng = np.random.default_rng(seed)
    shape = (1, 2, cores, batch)
    if dtype.endswith("f8"):
        array = rng.standard_normal(shape).astype(dtype)
    elif "i" in dtype:
        info = np.iinfo(dtype)
        values = rng.integers(info.min, info.max, size=shape, endpoint=True)
        array = values.astype(dtype)
    else:
        array = rng.random(shape) < 0.5
    # A NaN payload (``repr`` text would drop it) and a signed zero.
    specials = np.array([0x7FF80000DEADBEEF, 1 << 63], dtype=np.uint64)
    accuracy = np.zeros((1, 2, 1), dtype=dtype if dtype.endswith("f8") else "<f8")
    accuracy.reshape(-1)[:] = specials.view(np.float64)
    n_k = np.array([1, 2], dtype=np.int64)
    result = _counts_result(np.zeros((batch, 2), dtype=np.int64), n_k=n_k)
    result = replace(
        result,
        copy_levels=(1, 2),
        scores=np.zeros((1, 2, 1, batch, 2)),
        accuracy=accuracy,
        cores=np.array([4, 8], dtype=np.int64),
        spike_counters=array,
    )
    decoded = decode_result(encode_result(result))
    for sent, received in (
        (array, decoded.spike_counters),
        (accuracy, decoded.accuracy),
    ):
        native = sent.astype(sent.dtype.newbyteorder("="))
        assert received.dtype == native.dtype
        assert received.shape == sent.shape
        assert received.tobytes() == native.tobytes()
        assert received.flags.writeable


# ----------------------------------------------------------------------
# strictness: malformed payloads are typed errors, not silent defaults
# ----------------------------------------------------------------------
def test_unknown_field_rejected():
    with pytest.raises(CodecError, match="unknown request fields"):
        decode_request({"model": "tea", "copy_level": [1]})


def test_missing_model_rejected():
    with pytest.raises(CodecError, match="missing the 'model'"):
        decode_request({"copy_levels": [1]})


def test_bool_is_not_an_integer():
    with pytest.raises(CodecError, match="repeats must be an integer"):
        decode_request({"model": "tea", "repeats": True})
    with pytest.raises(CodecError, match="entries must be integers"):
        decode_request({"model": "tea", "copy_levels": [True]})


def test_unknown_backend_rejected_at_decode_time():
    with pytest.raises(CodecError, match="unknown backend"):
        decode_request({"model": "tea", "backend": "warp-drive"})


def test_stochastic_synapses_must_be_boolean():
    with pytest.raises(CodecError, match="stochastic_synapses must be a boolean"):
        decode_request({"model": "tea", "stochastic_synapses": 1})
    assert decode_request({"model": "tea"}).stochastic_synapses is False
    wire = decode_request({"model": "tea", "stochastic_synapses": True})
    assert wire.stochastic_synapses is True


def test_non_object_body_rejected():
    with pytest.raises(CodecError, match="JSON object"):
        decode_request([1, 2, 3])


def test_value_range_violations_become_codec_errors():
    wire = decode_request({"model": "tea", "repeats": 0})
    with pytest.raises(CodecError, match="repeats must be positive"):
        to_eval_request(wire, REGISTRY)


def test_link_delay_must_be_a_non_negative_integer():
    with pytest.raises(CodecError, match="link_delay must be an integer"):
        decode_request({"model": "tea", "link_delay": 1.5})
    with pytest.raises(CodecError, match="link_delay must be an integer"):
        decode_request({"model": "tea", "link_delay": True})
    wire = decode_request({"model": "tea", "link_delay": -1})
    with pytest.raises(CodecError, match="link_delay"):
        to_eval_request(wire, REGISTRY)
    assert decode_request({"model": "tea"}).link_delay is None
    assert decode_request({"model": "tea", "link_delay": 0}).link_delay == 0


def test_unknown_model_and_dataset_are_typed():
    with pytest.raises(UnknownModelError):
        to_eval_request(decode_request({"model": "nope"}), REGISTRY)
    with pytest.raises(UnknownDatasetError):
        to_eval_request(
            decode_request({"model": "tea", "dataset": "nope"}), REGISTRY
        )


def test_int64_array_rejects_lossy_float_and_bool_entries():
    """Integer arrays must arrive as integers, not as floats (a count of
    1.7) or bools, and bool bytes must be 0 or 1: numpy would read a 2 as
    True."""
    _assert_rejected(_frame(counts=np.full((1, 2, 1, 3, 2), 1.7)), "integer", "counts")
    flags = np.ones((1, 2, 1, 3, 2), dtype=bool)
    _assert_rejected(_frame(counts=flags), "integer", "counts")
    labels = np.array([0.0, 1.0, 0.0])
    with pytest.raises(CodecError):
        decode_result(_frame(class_neuron_counts=labels))
    counters = np.zeros((1, 2, 4, 3), dtype=bool)
    frame = _frame(spike_counters=counters)
    decode_result(frame)
    twos = frame[:-1] + b"\x02"
    _assert_rejected(twos, "bool bytes must be 0 or 1", "spike_counters")


def test_array_shape_data_mismatch_rejected():
    """The arrays' byte counts must add up to the body length exactly."""
    frame = _frame()
    decode_result(frame)
    _assert_rejected(frame[:-1], "past the", "cores")
    _assert_rejected(frame + b"\x00", "1 bytes after its last array", "body")
    wide = np.zeros((1, 2, 1, 3, 3), dtype=np.int16)
    header, _ = read_frame(frame)
    header["counts"] = {"dtype": "int16", "shape": list(wide.shape)}
    _assert_rejected(_frame(header=header), "past the", "cores")
    header["counts"] = {"dtype": "int16", "shape": [-2, -3]}
    _assert_rejected(_frame(header=header), "dims must be >= 0", "counts")
    header["counts"] = {"dtype": "int16", "shape": [0, 2**70]}
    hollow = _frame(header=header, counts=np.zeros(0, dtype=np.int16))
    _assert_rejected(hollow, "shape is invalid", "counts")
    header["counts"] = {"dtype": "int16", "shape": [12] + [1] * 64}
    _assert_rejected(_frame(header=header), "shape is invalid", "counts")
    header["counts"] = {"dtype": "int16", "shape": "12"}
    _assert_rejected(_frame(header=header), "list of integers", "counts")


def test_result_missing_field_rejected():
    header, _ = read_frame(_frame())
    header.pop("counts")
    with pytest.raises(CodecError, match="missing fields") as excinfo:
        decode_result(_frame(header=header))
    assert excinfo.value.field == "counts"


def _header(**changes):
    header, _ = read_frame(_frame())
    header.update(changes)
    return header


@pytest.mark.parametrize(
    "frame, match, field",
    [
        (b"\x05\x00", "too short", "header"),
        (b"\xff\x00\x00\x00{}", "runs past", "header"),
        (b"\x01\x00\x00\x00{", "not valid JSON", "header"),
        (b"\x02\x00\x00\x00\xff\xfe", "not valid JSON", "header"),
        (b"\x02\x00\x00\x00[]", "must be a JSON object", "header"),
        (_frame(header=_header(scores=None)), "unknown result fields", "scores"),
        (_frame(header=_header(spike_counters={})), "descriptor", "spike_counters"),
        (
            _frame(header=_header(accuracy={"dtype": "float32", "shape": [1, 2, 1]})),
            "unknown dtype",
            "accuracy",
        ),
        (
            _frame(header=_header(labels={"dtype": "uint8", "shape": [3]})),
            "unknown dtype",
            "labels",
        ),
        (_frame(header=_header(repeats=True)), "repeats must be an integer", "repeats"),
        (_frame(header=_header(backend=7)), "backend must be a string", "backend"),
    ],
    ids=[
        "short-body",
        "header-past-end",
        "header-not-json",
        "header-not-utf8",
        "header-not-object",
        "unknown-field",
        "bad-descriptor",
        "float32-dtype",
        "uint8-dtype",
        "bool-repeats",
        "int-backend",
    ],
)
def test_malformed_frame_is_rejected_naming_its_field(frame, match, field):
    _assert_rejected(frame, match, field)


def test_non_bytes_result_is_rejected():
    """A 1.5 answer's JSON ``result`` object is no frame."""
    with pytest.raises(CodecError, match="must be bytes"):
        decode_result({"backend": "chip"})
