"""JSON wire codecs for the evaluation service.

The service speaks a strict JSON protocol in front of the in-process
:class:`~repro.api.protocol.EvalRequest` / :class:`~repro.api.protocol.EvalResult`
types.  Two asymmetries shape the codec:

* A wire request cannot carry a trained model or a dataset by value, so it
  names them (``"model": "tea"``, ``"dataset": "test"``) and the server
  resolves the names against its :class:`~repro.serve.server.ModelRegistry`.
  :func:`encode_request` / :func:`decode_request` therefore round-trip the
  *wire form* losslessly, and :func:`to_eval_request` performs the resolution.
* A wire result carries every tensor by value.  Arrays are encoded as
  ``{"dtype", "shape", "data"}`` where ``data`` is the base64 of the
  array's little-endian bytes in C order.  The wire carries the raw
  IEEE-754 (and two's-complement) bytes, not ``repr`` text, so a decoded
  :class:`EvalResult` is **bit-identical** to the served one — NaN payloads
  and signed zeros included — the invariant the service smoke job asserts
  against direct :meth:`Session.evaluate`.

Validation is strict: unknown fields, wrong types (including ``True`` where
an int is expected), and malformed arrays (non-base64 ``data``, a byte
count that does not fit the shape, bool bytes other than 0 and 1) all raise
:class:`CodecError`, which the HTTP layer maps to a typed ``400`` error
payload.  Typed payloads (:func:`error_payload`) also cover
:class:`~repro.api.protocol.UnsupportedRequestError` (``422``), unknown
model/dataset names (``404``), overload (``429``), and shutdown (``503``).
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

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


def wire_payload(wire: WireRequest) -> Dict[str, object]:
    """The normalized JSON payload of a validated :class:`WireRequest`.

    Every field is spelled out (defaults included) with deterministic
    types, so two client payloads that decode to the same wire request
    produce the same normalized dict — the form the process worker pool
    ships to its children.
    ``decode_request(wire_payload(w)) == w`` for every ``WireRequest``.
    """
    return {
        "model": wire.model,
        "dataset": wire.dataset,
        "backend": wire.backend,
        "copy_levels": list(wire.copy_levels),
        "spf_levels": list(wire.spf_levels),
        "repeats": wire.repeats,
        "seed": wire.seed,
        "encoder": wire.encoder,
        "max_samples": wire.max_samples,
        "collect_spike_counters": wire.collect_spike_counters,
        "router_delay": wire.router_delay,
        "stochastic_synapses": wire.stochastic_synapses,
        "link_delay": wire.link_delay,
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
# arrays and results
# ----------------------------------------------------------------------
#: dtypes a wire array may carry; anything else is a protocol violation.
WIRE_DTYPES = ("float64", "int64", "bool")


def encode_array(array: np.ndarray) -> Dict[str, object]:
    """A numpy array as ``{"dtype", "shape", "data"}``, ``data`` in base64."""
    array = np.asarray(array)
    if array.dtype.name not in WIRE_DTYPES:
        raise CodecError(
            f"array dtype {array.dtype.name!r} is not wire-encodable; "
            f"allowed: {WIRE_DTYPES}"
        )
    little = array.astype(array.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": array.dtype.name,
        "shape": list(array.shape),
        "data": base64.b64encode(little.tobytes()).decode("ascii"),
    }


def decode_array(obj: object, field: str = "array") -> np.ndarray:
    """Decode :func:`encode_array` output into a writable native-endian array."""
    if not isinstance(obj, dict):
        raise CodecError(f"{field} must be an array object", field=field)
    missing = {"dtype", "shape", "data"} - set(obj)
    _require(not missing, f"{field} is missing {sorted(missing)}", field)
    name = obj["dtype"]
    _require(name in WIRE_DTYPES, f"{field} has unknown dtype {name!r}", field)
    shape = _int_tuple(obj["shape"], f"{field}.shape") if obj["shape"] != [] else ()
    _require(min(shape, default=0) >= 0, f"{field}.shape dims must be >= 0", field)
    _require(isinstance(obj["data"], str), f"{field}.data must be a string", field)
    try:
        raw = base64.b64decode(obj["data"], validate=True)
    except ValueError as error:  # binascii.Error, or non-ASCII text
        raise CodecError(f"{field}.data is not base64: {error}", field=field) from None
    wire = np.dtype(name).newbyteorder("<")
    expected = math.prod(shape) * wire.itemsize
    _require(
        len(raw) == expected,
        f"{field}.data has {len(raw)} bytes, shape {shape} of {name} needs {expected}",
        field,
    )
    # numpy reads any nonzero byte as True; a strict codec accepts only 0 and 1.
    _require(
        name != "bool" or max(raw, default=0) <= 1,
        f"{field}.data bool bytes must be 0 or 1",
        field,
    )
    try:
        return np.frombuffer(raw, dtype=wire).astype(name).reshape(shape)
    except ValueError as error:  # over 64 dims, or a zero-size shape with a huge dim
        raise CodecError(f"{field}.shape is invalid: {error}", field=field) from None


def encode_result(result: EvalResult) -> Dict[str, object]:
    """An :class:`EvalResult` as a JSON-safe payload (exact, see module doc)."""
    return {
        "backend": result.backend,
        "copy_levels": list(result.copy_levels),
        "spf_levels": list(result.spf_levels),
        "scores": encode_array(result.scores),
        "accuracy": encode_array(result.accuracy),
        "labels": encode_array(np.asarray(result.labels, dtype=np.int64)),
        "class_neuron_counts": encode_array(
            np.asarray(result.class_neuron_counts, dtype=np.int64)
        ),
        "cores": encode_array(np.asarray(result.cores, dtype=np.int64)),
        "seed": result.seed,
        "repeats": result.repeats,
        "spike_counters": (
            None
            if result.spike_counters is None
            else encode_array(result.spike_counters)
        ),
    }


_RESULT_FIELDS = (
    "backend",
    "copy_levels",
    "spf_levels",
    "scores",
    "accuracy",
    "labels",
    "class_neuron_counts",
    "cores",
    "seed",
    "repeats",
    "spike_counters",
)


def decode_result(payload: object) -> EvalResult:
    """Decode :func:`encode_result` output back into an :class:`EvalResult`."""
    if not isinstance(payload, dict):
        raise CodecError(
            f"result payload must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_RESULT_FIELDS))
    if unknown:
        raise CodecError(f"unknown result fields {unknown}", field=unknown[0])
    missing = sorted(set(_RESULT_FIELDS) - set(payload))
    if missing:
        raise CodecError(f"result is missing fields {missing}", field=missing[0])
    _require(isinstance(payload["backend"], str), "backend must be a string", "backend")
    seed = payload["seed"]
    _require(seed is None or _is_int(seed), "seed must be an integer or null", "seed")
    _require(_is_int(payload["repeats"]), "repeats must be an integer", "repeats")
    spike_counters = payload["spike_counters"]
    return EvalResult(
        backend=payload["backend"],
        copy_levels=_int_tuple(payload["copy_levels"], "copy_levels"),
        spf_levels=_int_tuple(payload["spf_levels"], "spf_levels"),
        scores=decode_array(payload["scores"], "scores"),
        accuracy=decode_array(payload["accuracy"], "accuracy"),
        labels=decode_array(payload["labels"], "labels"),
        class_neuron_counts=decode_array(
            payload["class_neuron_counts"], "class_neuron_counts"
        ),
        cores=decode_array(payload["cores"], "cores"),
        seed=None if seed is None else int(seed),
        repeats=int(payload["repeats"]),
        spike_counters=(
            None
            if spike_counters is None
            else decode_array(spike_counters, "spike_counters")
        ),
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
