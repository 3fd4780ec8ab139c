"""Frozen/trainable coordinate partition and sparse update transport.

A PartitionMask marks the trainable subset of a flat parameter vector as the
union of whole named layers.  Client-to-server updates carry only masked
coordinates; the wire encodings are documented in the README (values travel
as little-endian float32, training stays float64 in memory).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ProtocolError, ShapeError
from .models import Layout, ParameterVector, layer_spans

DEFAULT_ENCODING = "dense-f32"
ENCODINGS = (DEFAULT_ENCODING, "sparse-idx32-f32")

MAGIC = b"FDPS"
WIRE_VERSION = 1
_ENCODING_CODES = {"dense-f32": 1, "sparse-idx32-f32": 2}
_CODE_ENCODINGS = {v: k for k, v in _ENCODING_CODES.items()}
HEADER = struct.Struct("<4sHHII")  # magic, version, encoding, client_id, round
BODY = struct.Struct("<IIII")  # tau, n_k, total_dim, entry_count
VALUE = np.dtype("<f4")  # one delta on the wire
INDEX = np.dtype("<u4")  # one sparse coordinate on the wire


def _selector(indices: np.ndarray) -> slice | np.ndarray:
    """A slice when strictly increasing ``indices`` form one run, else the array."""
    if indices.size and indices[-1] - indices[0] + 1 == indices.size:
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return indices


@dataclass(frozen=True)
class PartitionMask:
    """Boolean coordinate mask selecting the trainable subset of a layout.

    ``indices`` is read-only: every update cut with the mask shares it.
    ``selector`` picks the same coordinates: a slice when they form one run
    (adjacent layers), which reads and writes in place of a gather and a
    scatter, else ``indices``.
    """

    selected_layers: tuple[str, ...]
    coordinate_mask: np.ndarray
    indices: np.ndarray = field(init=False, repr=False)
    selector: slice | np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mask = np.asarray(self.coordinate_mask, dtype=bool)
        object.__setattr__(self, "coordinate_mask", mask)
        indices = np.flatnonzero(mask).astype(np.int64)
        indices.flags.writeable = False
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "selector", _selector(indices))

    @property
    def total_count(self) -> int:
        return int(self.coordinate_mask.size)

    @property
    def trainable_count(self) -> int:
        return int(self.indices.size)

    @property
    def trainable_fraction(self) -> float:
        return self.trainable_count / self.total_count


def make_mask(layout: Layout, selected_layers: list[str] | tuple[str, ...]) -> PartitionMask:
    """Mask covering exactly the named layers' coordinate ranges."""
    mask = np.zeros(sum(length for _, _, length in layout), dtype=bool)
    for span in layer_spans(layout, selected_layers).values():
        mask[span] = True
    return PartitionMask(tuple(selected_layers), mask)


@dataclass
class MaskedUpdate:
    """A client's trainable-coordinate delta for one round.

    Zero deltas inside the mask are kept, so the entry count is always the
    mask's trainable count and payload size is a pure function of the mask.
    """

    client_id: int
    round_index: int
    indices: np.ndarray
    deltas: np.ndarray
    tau: int
    n_k: int

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.deltas = np.asarray(self.deltas, dtype=np.float64)
        if self.indices.shape != self.deltas.shape or self.indices.ndim != 1:
            raise ShapeError("indices and deltas must be 1-D arrays of equal length")
        if self.indices.size and np.any(np.diff(self.indices) <= 0):
            raise ShapeError("update indices must be strictly increasing")
        if not np.all(np.isfinite(self.deltas)):
            raise NumericError("update deltas must be finite")

    @property
    def entry_count(self) -> int:
        return int(self.indices.size)

    @property
    def selector(self) -> slice | np.ndarray:
        """The indices as a slice when they form one run (see PartitionMask)."""
        return _selector(self.indices)


def extract_masked_update(
    w_new: ParameterVector,
    w_old: ParameterVector,
    mask: PartitionMask,
    client_id: int,
    round_index: int,
    tau: int,
    n_k: int,
) -> MaskedUpdate:
    """Masked difference w_new - w_old, restricted to trainable coordinates."""
    if w_new.layout != w_old.layout:
        raise ShapeError("parameter vectors do not share a layout")
    if mask.total_count != w_old.dim:
        raise ShapeError(
            f"mask covers {mask.total_count} coordinates, parameters have {w_old.dim}"
        )
    deltas = w_new.values[mask.selector] - w_old.values[mask.selector]
    return MaskedUpdate(client_id, round_index, mask.indices, deltas, tau, n_k)


def serialize_update(update: MaskedUpdate, total_dim: int, encoding: str = DEFAULT_ENCODING) -> bytes:
    """Binary wire form: HEADER, BODY, then the payload, which is entry_count
    VALUEs in index order (dense-f32), or entry_count INDEXes and then the
    VALUEs (sparse-idx32-f32)."""
    if encoding not in _ENCODING_CODES:
        raise ShapeError(f"unknown encoding {encoding!r}; expected one of {ENCODINGS}")
    head = HEADER.pack(
        MAGIC, WIRE_VERSION, _ENCODING_CODES[encoding], update.client_id, update.round_index
    )
    body = BODY.pack(update.tau, update.n_k, total_dim, update.entry_count)
    values = update.deltas.astype(VALUE).tobytes()
    if encoding == "dense-f32":
        return head + body + values
    return head + body + update.indices.astype(INDEX).tobytes() + values


def deserialize_update(blob: bytes, mask: PartitionMask | None = None) -> MaskedUpdate:
    """Inverse of serialize_update; dense payloads need the mask for indices."""
    if len(blob) < HEADER.size + BODY.size:
        raise ProtocolError("update blob shorter than the fixed header")
    magic, version, code, client_id, round_index = HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    if code not in _CODE_ENCODINGS:
        raise ProtocolError(f"unknown encoding code {code}")
    tau, n_k, total_dim, count = BODY.unpack_from(blob, HEADER.size)
    payload = blob[HEADER.size + BODY.size :]
    if _CODE_ENCODINGS[code] == "dense-f32":
        if mask is None:
            raise ProtocolError("dense-f32 payloads need the mask to recover indices")
        if mask.trainable_count != count or mask.total_count != total_dim:
            raise ProtocolError("mask does not match the serialized update")
        if len(payload) != VALUE.itemsize * count:
            raise ProtocolError("dense payload has the wrong size")
        values = np.frombuffer(payload, dtype=VALUE).astype(np.float64)
        indices = mask.indices
    else:
        if len(payload) != (INDEX.itemsize + VALUE.itemsize) * count:
            raise ProtocolError("sparse payload has the wrong size")
        indices = np.frombuffer(payload, dtype=INDEX, count=count).astype(np.int64)
        if np.any(indices >= total_dim):
            raise ProtocolError(f"sparse index out of range for total_dim {total_dim}")
        if np.any(np.diff(indices) <= 0):
            raise ProtocolError("sparse indices are not strictly increasing")
        values = np.frombuffer(payload, VALUE, count, offset=INDEX.itemsize * count).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise ProtocolError("update values on the wire must be finite")
    return MaskedUpdate(client_id, round_index, indices, values, tau, n_k)
