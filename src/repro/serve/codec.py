"""Wire codecs for the evaluation service.

Requests are strict JSON in front of the in-process
:class:`~repro.api.protocol.EvalRequest`; a successful result travels as a
binary *result frame* in front of
:class:`~repro.api.protocol.EvalResult`.  Two asymmetries shape the codec:

* A wire request cannot carry a trained model or a dataset by value, so it
  names them (``"model": "tea"``, ``"dataset": "test"``) and the server
  resolves the names against its :class:`~repro.serve.server.ModelRegistry`.
  :func:`encode_request` / :func:`decode_request` therefore round-trip the
  *wire form* losslessly, and :func:`to_eval_request` performs the resolution.
* A wire result carries every tensor by value, as raw bytes.  The body of
  a successful ``POST /v1/evaluate`` (``Content-Type``
  :data:`RESULT_CONTENT_TYPE`) is:

  - 4 bytes, little-endian unsigned: the header length ``H``;
  - ``H`` bytes of UTF-8 JSON header;
  - the raw bytes of the arrays.

  The header holds the scalar fields (``backend``, ``copy_levels``,
  ``spf_levels``, ``seed``, ``repeats``) and describes each array field
  (``counts``, ``accuracy``, ``labels``, ``class_neuron_counts``,
  ``cores``, and ``spike_counters`` or null) as ``{"dtype", "shape"}``.
  The arrays' little-endian C-order bytes follow in that field order, back
  to back, and the body ends exactly after the last one: no float
  round-trips through text, and no byte through base64.  The score tensor
  travels as what it is made of: the integer class counts, in the
  narrowest of int16, int32 and int64 that holds the largest count, and
  the decoder rebuilds ``scores = counts / n_k``.  Every backend's scores
  are exactly that division, so a decoded :class:`EvalResult` is
  **bit-identical** to the served one — the invariant the service smoke
  job asserts against direct :meth:`Session.evaluate` — at about a
  quarter of the float64 body.  :func:`encode_result` refuses (a plain
  ``ValueError``, hence a ``500``) scores that are not exact class means,
  rather than send a body that would decode to different bits.

Validation is strict: unknown fields, wrong types (including ``True`` where
an int is expected), malformed frames (a header that runs past the body or
is not a JSON object with exactly the result fields, a dtype outside
:data:`WIRE_DTYPES`, array byte counts that do not add up to the body
length, bool bytes other than 0 and 1), and results that contradict
themselves (a counts, accuracy, cores or spike-counter tensor whose shape
disagrees with the declared repeats, levels, labels or ``n_k``, negative
counts, an ``n_k`` below 1) all raise :class:`CodecError` naming the
field, which the HTTP layer maps to a typed ``400`` error payload.  Typed
payloads (:func:`error_payload`) also cover
:class:`~repro.api.protocol.UnsupportedRequestError` (``422``), unknown
model/dataset names (``404``), overload (``429``), and shutdown (``503``);
they, and every answer other than a result, stay JSON.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api.protocol import KNOWN_ENCODERS, EvalRequest, UnsupportedRequestError
from repro.api import EvalResult, backend_names


class CodecError(ValueError):
    """A wire payload violates the protocol schema.

    Attributes:
        field: name of the offending field, when one can be blamed.
    """

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field


class UnknownModelError(KeyError):
    """A wire request names a model the registry does not host."""


class UnknownDatasetError(KeyError):
    """A wire request names a dataset the registry does not host."""


@dataclass(frozen=True)
class WireRequest:
    """The validated wire form of one evaluation request.

    Mirrors :class:`EvalRequest` field for field, with the model and dataset
    replaced by registry names and an optional explicit ``backend`` (``None``
    defers to the service session's selection, normally ``auto``).
    """

    model: str
    dataset: str = "test"
    backend: Optional[str] = None
    copy_levels: Tuple[int, ...] = (1,)
    spf_levels: Tuple[int, ...] = (1,)
    repeats: int = 1
    seed: Optional[int] = 0
    encoder: str = "stochastic"
    max_samples: Optional[int] = None
    collect_spike_counters: bool = False
    router_delay: Optional[int] = None
    stochastic_synapses: bool = False
    link_delay: Optional[int] = None


_WIRE_FIELDS = tuple(spec.name for spec in fields(WireRequest))


def _require(condition: bool, message: str, field: str) -> None:
    if not condition:
        raise CodecError(message, field=field)


def _is_int(value: object) -> bool:
    """Strictly an integer — JSON ``true`` must not pass as ``1``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_tuple(value: object, field: str) -> Tuple[int, ...]:
    _require(
        isinstance(value, (list, tuple)) and len(value) > 0,
        f"{field} must be a non-empty list of integers",
        field,
    )
    for item in value:
        _require(_is_int(item), f"{field} entries must be integers", field)
    return tuple(int(item) for item in value)


def encode_request(
    request: EvalRequest,
    model: str,
    dataset: str = "test",
    backend: Optional[str] = None,
) -> Dict[str, object]:
    """The wire payload naming ``model``/``dataset`` for an in-process request."""
    return {
        "model": model,
        "dataset": dataset,
        "backend": backend,
        "copy_levels": list(request.copy_levels),
        "spf_levels": list(request.spf_levels),
        "repeats": request.repeats,
        "seed": request.seed,
        "encoder": request.encoder,
        "max_samples": request.max_samples,
        "collect_spike_counters": request.collect_spike_counters,
        "router_delay": request.router_delay,
        "stochastic_synapses": request.stochastic_synapses,
        "link_delay": request.link_delay,
    }


def decode_request(payload: object) -> WireRequest:
    """Validate a wire payload strictly and return its :class:`WireRequest`.

    Value-range rules that :class:`EvalRequest` already owns (positive
    levels, positive repeats, known encoder, ...) are *not* duplicated here;
    :func:`to_eval_request` funnels them through the dataclass and converts
    any violation into a :class:`CodecError`.
    """
    if not isinstance(payload, dict):
        raise CodecError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_WIRE_FIELDS))
    if unknown:
        raise CodecError(
            f"unknown request fields {unknown}; known: {sorted(_WIRE_FIELDS)}",
            field=unknown[0],
        )
    _require("model" in payload, "request is missing the 'model' field", "model")
    model = payload["model"]
    _require(
        isinstance(model, str) and model != "",
        "model must be a non-empty string",
        "model",
    )
    dataset = payload.get("dataset", "test")
    _require(
        isinstance(dataset, str) and dataset != "",
        "dataset must be a non-empty string",
        "dataset",
    )
    backend = payload.get("backend")
    if backend is not None:
        _require(
            isinstance(backend, str), "backend must be a string or null", "backend"
        )
        _require(
            backend in backend_names(),
            f"unknown backend {backend!r}; registered: {backend_names()}",
            "backend",
        )
    copy_levels = _int_tuple(payload.get("copy_levels", [1]), "copy_levels")
    spf_levels = _int_tuple(payload.get("spf_levels", [1]), "spf_levels")
    repeats = payload.get("repeats", 1)
    _require(_is_int(repeats), "repeats must be an integer", "repeats")
    seed = payload.get("seed", 0)
    _require(seed is None or _is_int(seed), "seed must be an integer or null", "seed")
    encoder = payload.get("encoder", "stochastic")
    _require(
        isinstance(encoder, str),
        f"encoder must be a string (known: {KNOWN_ENCODERS})",
        "encoder",
    )
    max_samples = payload.get("max_samples")
    _require(
        max_samples is None or _is_int(max_samples),
        "max_samples must be an integer or null",
        "max_samples",
    )
    collect = payload.get("collect_spike_counters", False)
    _require(
        isinstance(collect, bool),
        "collect_spike_counters must be a boolean",
        "collect_spike_counters",
    )
    router_delay = payload.get("router_delay")
    _require(
        router_delay is None or _is_int(router_delay),
        "router_delay must be an integer or null",
        "router_delay",
    )
    stochastic = payload.get("stochastic_synapses", False)
    _require(
        isinstance(stochastic, bool),
        "stochastic_synapses must be a boolean",
        "stochastic_synapses",
    )
    link_delay = payload.get("link_delay")
    _require(
        link_delay is None or _is_int(link_delay),
        "link_delay must be an integer or null",
        "link_delay",
    )
    return WireRequest(
        model=model,
        dataset=dataset,
        backend=backend,
        copy_levels=copy_levels,
        spf_levels=spf_levels,
        repeats=int(repeats),
        seed=None if seed is None else int(seed),
        encoder=encoder,
        max_samples=None if max_samples is None else int(max_samples),
        collect_spike_counters=collect,
        router_delay=None if router_delay is None else int(router_delay),
        stochastic_synapses=stochastic,
        link_delay=None if link_delay is None else int(link_delay),
    )


def to_eval_request(wire: WireRequest, registry) -> EvalRequest:
    """Resolve a wire request against a registry into an :class:`EvalRequest`.

    ``registry`` needs two lookups — ``model(name)`` raising
    :class:`UnknownModelError` and ``dataset(name)`` raising
    :class:`UnknownDatasetError` (:class:`~repro.serve.server.ModelRegistry`
    implements both).  Value-range violations surface as :class:`CodecError`
    so the transport can answer a typed ``400`` instead of a bare ``500``.
    """
    model = registry.model(wire.model)
    dataset = registry.dataset(wire.dataset)
    try:
        return EvalRequest(
            model=model,
            dataset=dataset,
            copy_levels=wire.copy_levels,
            spf_levels=wire.spf_levels,
            repeats=wire.repeats,
            seed=wire.seed,
            encoder=wire.encoder,
            max_samples=wire.max_samples,
            collect_spike_counters=wire.collect_spike_counters,
            router_delay=wire.router_delay,
            stochastic_synapses=wire.stochastic_synapses,
            link_delay=wire.link_delay,
        )
    except ValueError as error:
        raise CodecError(str(error)) from error


# ----------------------------------------------------------------------
# result frames
# ----------------------------------------------------------------------
#: ``Content-Type`` of a result frame, the body of a successful evaluation.
RESULT_CONTENT_TYPE = "application/vnd.repro.result"

#: dtypes a wire array may carry; anything else is a protocol violation.
WIRE_DTYPES = ("float64", "int64", "int32", "int16", "bool")

#: integer dtypes a counts tensor may travel in, narrowest first.
_COUNT_DTYPES = (np.int16, np.int32, np.int64)

#: a frame header's scalar fields, and its array fields in byte order.
_SCALAR_FIELDS = ("backend", "copy_levels", "spf_levels", "seed", "repeats")
_ARRAY_FIELDS = (
    "counts",
    "accuracy",
    "labels",
    "class_neuron_counts",
    "cores",
    "spike_counters",
)
_RESULT_FIELDS = _SCALAR_FIELDS + _ARRAY_FIELDS

#: the frame's leading header length.
_PREFIX = struct.Struct("<I")

#: where one array of a frame lies: (wire dtype, shape, byte offset).
ArraySpan = Tuple[np.dtype, Tuple[int, ...], int]


def _wire_counts(result: EvalResult) -> np.ndarray:
    """The class counts behind ``result.scores``, in their narrowest dtype.

    The check divides by the int64 ``n_k`` the wire sends, so it rebuilds
    exactly what :func:`decode_result` will.  One float64 temporary holds
    ``rint(scores * n_k)`` and then the rebuilt ``counts / n_k``: large
    temporaries, not arithmetic, dominate the cost at serve-hot sizes.

    Raises:
        ValueError: when the scores are not float64 exact class means of
            non-negative counts over an ``n_k >= 1``, so that
            ``counts / n_k`` would not rebuild them bit for bit.  The
            request was valid, so this is a server fault, not a
            :class:`CodecError`.
    """
    scores = np.asarray(result.scores)
    n_k = np.asarray(result.class_neuron_counts, dtype=np.int64)
    if (
        scores.dtype != np.float64
        or n_k.shape != scores.shape[-1:]
        or n_k.size == 0
        or n_k.min() < 1
    ):
        raise ValueError(
            f"cannot send {result.backend!r} scores of dtype {scores.dtype} and "
            f"shape {scores.shape} over class_neuron_counts {n_k.tolist()} as "
            "class counts"
        )
    product = scores * n_k
    np.rint(product, out=product)
    peak = float(product.max(initial=0.0))
    if product.min(initial=0.0) >= 0.0 and peak < 2.0**63:
        dtype = next(d for d in _COUNT_DTYPES if peak <= np.iinfo(d).max)
        counts = product.astype(dtype)
        np.divide(counts, n_k, out=product)
        if np.array_equal(product.view(np.uint64), scores.view(np.uint64)):
            return counts
    raise ValueError(
        f"{result.backend!r} scores are not exact class means counts / n_k of "
        "non-negative counts; the wire cannot rebuild them bit for bit"
    )


def encode_result(result: EvalResult) -> bytes:
    """An :class:`EvalResult` as one result frame (see the module doc).

    Raises:
        CodecError: when an array's dtype is not in :data:`WIRE_DTYPES`.
        ValueError: when the scores are not exact class means (see
            :func:`_wire_counts`).
    """
    arrays = (
        _wire_counts(result),
        np.asarray(result.accuracy),
        np.asarray(result.labels, dtype=np.int64),
        np.asarray(result.class_neuron_counts, dtype=np.int64),
        np.asarray(result.cores, dtype=np.int64),
        None if result.spike_counters is None else np.asarray(result.spike_counters),
    )
    header: Dict[str, object] = {
        "backend": result.backend,
        "copy_levels": list(result.copy_levels),
        "spf_levels": list(result.spf_levels),
        "seed": result.seed,
        "repeats": result.repeats,
    }
    chunks: List[memoryview] = []
    for field, array in zip(_ARRAY_FIELDS, arrays):
        if array is None:
            header[field] = None
            continue
        if array.dtype.name not in WIRE_DTYPES:
            raise CodecError(
                f"{field} has dtype {array.dtype.name!r}, which is not "
                f"wire-encodable; allowed: {WIRE_DTYPES}",
                field=field,
            )
        header[field] = {"dtype": array.dtype.name, "shape": list(array.shape)}
        little = array.astype(array.dtype.newbyteorder("<"), copy=False)
        chunks.append(memoryview(np.ascontiguousarray(little)))
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([_PREFIX.pack(len(head)), head, *chunks])


def _array_span(spec: object, field: str, offset: int) -> ArraySpan:
    """Validate one header array descriptor; its span starts at ``offset``."""
    if not isinstance(spec, dict) or set(spec) != {"dtype", "shape"}:
        raise CodecError(
            f"{field} must be an array descriptor with exactly 'dtype' and 'shape'",
            field=field,
        )
    name = spec["dtype"]
    _require(
        name in WIRE_DTYPES,
        f"{field} has unknown dtype {name!r}; allowed: {WIRE_DTYPES}",
        field,
    )
    shape = () if spec["shape"] == [] else _int_tuple(spec["shape"], field)
    _require(min(shape, default=0) >= 0, f"{field} shape dims must be >= 0", field)
    return np.dtype(name).newbyteorder("<"), shape, offset


def read_frame(body: bytes) -> Tuple[Dict[str, Any], Dict[str, ArraySpan]]:
    """A result frame's header, and where each array it sends lies.

    Checks the frame's structure and reads no array byte: the header lies
    inside the body and is a JSON object with exactly the result fields,
    every array has a wire dtype and a shape, and the arrays' byte counts
    add up to the body length.  The front router checks a replica's
    answer with this alone; :func:`decode_result` adds the checks that
    need the values.  A null ``spike_counters`` has no span.
    """
    if not isinstance(body, bytes):
        raise CodecError(
            f"a result frame must be bytes, got {type(body).__name__}", field="body"
        )
    size = len(body)
    _require(
        size >= _PREFIX.size,
        f"a {size}-byte body is too short for the header length",
        "header",
    )
    (length,) = _PREFIX.unpack_from(body)
    offset = _PREFIX.size + length
    _require(
        offset <= size,
        f"a header of {length} bytes runs past the {size}-byte body",
        "header",
    )
    try:
        header = json.loads(body[_PREFIX.size : offset].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CodecError(f"header is not valid JSON: {error}", field="header") from None
    if not isinstance(header, dict):
        raise CodecError(
            f"header must be a JSON object, got {type(header).__name__}",
            field="header",
        )
    unknown = sorted(set(header) - set(_RESULT_FIELDS))
    if unknown:
        raise CodecError(f"unknown result fields {unknown}", field=unknown[0])
    missing = sorted(set(_RESULT_FIELDS) - set(header))
    if missing:
        raise CodecError(f"result is missing fields {missing}", field=missing[0])
    spans: Dict[str, ArraySpan] = {}
    for field in _ARRAY_FIELDS:
        if field == "spike_counters" and header[field] is None:
            continue
        span = _array_span(header[field], field, offset)
        offset += math.prod(span[1]) * span[0].itemsize
        _require(
            offset <= size,
            f"{field} ends at byte {offset}, past the {size}-byte body",
            field,
        )
        spans[field] = span
    _require(
        offset == size,
        f"the body has {size - offset} bytes after its last array",
        "body",
    )
    return header, spans


def _frame_array(body: bytes, field: str, span: ArraySpan) -> np.ndarray:
    """The array ``span`` locates, as a writable native-endian copy."""
    wire, shape, offset = span
    count = math.prod(shape)
    # numpy reads any nonzero byte as True; a strict codec accepts only 0 and 1.
    if wire.kind == "b" and count:
        raw = np.frombuffer(body, dtype=np.uint8, count=count, offset=offset)
        _require(int(raw.max()) <= 1, f"{field} bool bytes must be 0 or 1", field)
    try:
        flat = np.frombuffer(body, dtype=wire, count=count, offset=offset)
        return flat.astype(wire.newbyteorder("=")).reshape(shape)
    except ValueError as error:  # over 64 dims, or a zero-size shape with a huge dim
        raise CodecError(f"{field} shape is invalid: {error}", field=field) from None


def decode_result(body: bytes) -> EvalResult:
    """Decode one :func:`encode_result` frame back into an :class:`EvalResult`.

    :func:`read_frame` checks the frame's structure.  The scores are
    rebuilt as ``counts / n_k``: true division casts both operands to
    float64 exactly, so dividing the narrow wire counts is dividing their
    int64 widening, with no int64 copy in between.  Every array must agree
    with the declared grid:
    ``counts`` is ``(repeats, len(copy_levels), len(spf_levels),
    len(labels), len(class_neuron_counts))``, ``accuracy`` its first three
    axes, ``cores`` one entry per copy level, ``spike_counters`` (when
    sent) ``(repeats, max copy level, cores, len(labels))``; counts are
    non-negative and every ``n_k`` at least 1.
    """
    header, spans = read_frame(body)
    _require(isinstance(header["backend"], str), "backend must be a string", "backend")
    seed = header["seed"]
    _require(seed is None or _is_int(seed), "seed must be an integer or null", "seed")
    repeats = header["repeats"]
    _require(_is_int(repeats), "repeats must be an integer", "repeats")
    copy_levels = _int_tuple(header["copy_levels"], "copy_levels")
    spf_levels = _int_tuple(header["spf_levels"], "spf_levels")
    arrays = {field: _frame_array(body, field, span) for field, span in spans.items()}
    counts = arrays["counts"]
    accuracy = arrays["accuracy"]
    labels = arrays["labels"]
    n_k = arrays["class_neuron_counts"]
    cores = arrays["cores"]
    _require(
        counts.dtype.name in ("int16", "int32", "int64"),
        f"counts must be an integer array, got {counts.dtype.name}",
        "counts",
    )
    _require(labels.ndim == 1, "labels must be one-dimensional", "labels")
    _require(
        n_k.ndim == 1 and n_k.dtype == np.int64,
        "class_neuron_counts must be a one-dimensional int64 array",
        "class_neuron_counts",
    )
    _require(
        n_k.size > 0 and n_k.min() >= 1,
        f"class_neuron_counts must all be >= 1, got {n_k.tolist()}",
        "class_neuron_counts",
    )
    grid = (repeats, len(copy_levels), len(spf_levels))
    expected = grid + (len(labels), len(n_k))
    _require(
        counts.shape == expected,
        f"counts has shape {counts.shape}; repeats, copy_levels, spf_levels, "
        f"labels and class_neuron_counts give {expected}",
        "counts",
    )
    _require(counts.min(initial=0) >= 0, "counts must be >= 0", "counts")
    _require(
        accuracy.shape == grid,
        f"accuracy has shape {accuracy.shape}; the grid is {grid}",
        "accuracy",
    )
    _require(
        cores.shape == (len(copy_levels),),
        f"cores has shape {cores.shape}; expected one entry per copy level "
        f"({len(copy_levels)})",
        "cores",
    )
    spike_counters = arrays.get("spike_counters")
    if spike_counters is not None:
        _require(
            spike_counters.ndim == 4
            and spike_counters.shape[:2] == (repeats, copy_levels[-1])
            and spike_counters.shape[3] == len(labels),
            f"spike_counters has shape {spike_counters.shape}; expected "
            f"(repeats, max copy level, cores, batch) = ({repeats}, "
            f"{copy_levels[-1]}, cores, {len(labels)})",
            "spike_counters",
        )
    return EvalResult(
        backend=header["backend"],
        copy_levels=copy_levels,
        spf_levels=spf_levels,
        scores=counts / n_k,
        accuracy=accuracy,
        labels=labels,
        class_neuron_counts=n_k,
        cores=cores,
        seed=None if seed is None else int(seed),
        repeats=repeats,
        spike_counters=spike_counters,
    )


# ----------------------------------------------------------------------
# typed error payloads
# ----------------------------------------------------------------------
def error_payload(error: BaseException) -> Tuple[int, Dict[str, object]]:
    """(HTTP status, ``{"error": {...}}`` payload) for a service failure.

    The ``type`` discriminator is stable protocol surface — clients switch
    on it (:mod:`repro.serve.client` raises the matching typed exception).
    Covers every typed failure of the request path, including overload
    (429, with a ``retry_after`` field the HTTP layer mirrors into the
    ``Retry-After`` header) and shutdown (503); anything unrecognized is a
    500 ``internal-error``.
    """
    # Imported here, not at module top: admission imports nothing from this
    # module today, but the codec's public surface should not be the reason
    # that stays true.
    from repro.serve.admission import QueueFullError, ServiceClosedError

    if isinstance(error, QueueFullError):
        return 429, {
            "error": {
                "type": "overloaded",
                "message": str(error),
                "retry_after": max(1, math.ceil(error.retry_after)),
            }
        }
    if isinstance(error, ServiceClosedError):
        return 503, {
            "error": {"type": "shutting-down", "message": str(error)}
        }
    if isinstance(error, CodecError):
        detail: Dict[str, object] = {
            "type": "request-validation",
            "message": str(error),
        }
        if error.field is not None:
            detail["field"] = error.field
        return 400, {"error": detail}
    if isinstance(error, UnknownModelError):
        return 404, {
            "error": {"type": "unknown-model", "message": str(error.args[0])}
        }
    if isinstance(error, UnknownDatasetError):
        return 404, {
            "error": {"type": "unknown-dataset", "message": str(error.args[0])}
        }
    if isinstance(error, UnsupportedRequestError):
        return 422, {
            "error": {"type": "unsupported-request", "message": str(error)}
        }
    return 500, {
        "error": {
            "type": "internal-error",
            "message": f"{type(error).__name__}: {error}",
        }
    }
