"""Inter-agent matrix exchange: fusion rules and the binary wire format.

Wire layout (little-endian):

====== ====== ==========================================================
offset size   field
====== ====== ==========================================================
0      4      magic ``CATM``
4      2      format version (currently 1)
6      2      M, number of attributes (matrix rows)
8      2      N, number of categories (matrix columns)
10     2      flags: bit 0 = accuracy vector present, bits 1-15 = sender id
12     4      iteration number (1 to 2**32 - 1)
16     M*N*8  matrix entries, IEEE-754 binary64, row-major (rows = attributes)
...    M*8    optional per-attribute accuracy vector Q
====== ====== ==========================================================

A 10x10 matrix without Q is exactly 816 bytes.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DecodeError, ProtocolError
from .pool import AttributeCategoryMatrix, _check_int

MAGIC = b"CATM"
WIRE_VERSION = 1
HEADER = struct.Struct("<4sHHHHI")
_FLAG_Q = 0x0001
_MAX_AGENT_ID = 0x7FFF
_MAX_ITERATION = 0xFFFFFFFF


@dataclass(frozen=True, eq=False)
class MatrixMessage:
    """The per-iteration payload one agent sends to its peers."""

    agent_id: int
    iteration: int
    matrix: AttributeCategoryMatrix
    accuracy_vector: np.ndarray | None = None

    def __post_init__(self):
        _check_int(self.agent_id, "agent_id", 0)
        _check_int(self.iteration, "iteration", 1)
        if self.agent_id > _MAX_AGENT_ID or self.iteration > _MAX_ITERATION:
            raise ConfigurationError(
                f"agent_id must be at most {_MAX_AGENT_ID}, iteration at most {_MAX_ITERATION}"
            )
        if self.accuracy_vector is not None:
            q = np.asarray(self.accuracy_vector, dtype=float).copy()
            if q.shape != (self.matrix.n_attributes,):
                raise ConfigurationError("accuracy vector must have one entry per attribute")
            if not np.all(np.isfinite(q)) or q.min() < 0.0 or q.max() > 1.0:
                raise ConfigurationError("accuracy entries must lie in [0, 1]")
            q.setflags(write=False)
            object.__setattr__(self, "accuracy_vector", q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixMessage):
            return NotImplemented
        if (self.agent_id, self.iteration) != (other.agent_id, other.iteration):
            return False
        if self.matrix != other.matrix:
            return False
        if (self.accuracy_vector is None) != (other.accuracy_vector is None):
            return False
        return self.accuracy_vector is None or np.array_equal(
            self.accuracy_vector, other.accuracy_vector
        )


def fuse_uniform(
    own: AttributeCategoryMatrix, received: Sequence[AttributeCategoryMatrix]
) -> AttributeCategoryMatrix:
    """Entrywise mean of the agent's matrix and every received matrix."""
    for other in received:
        if other.values.shape != own.values.shape:
            raise ProtocolError(
                f"matrix dimensions differ: {other.values.shape} vs {own.values.shape}"
            )
    if not received:
        return own
    stacked = np.stack([own.values] + [m.values for m in received])
    return AttributeCategoryMatrix(stacked.mean(axis=0))


def fuse_weighted(
    own: tuple[AttributeCategoryMatrix, np.ndarray],
    received: Sequence[tuple[AttributeCategoryMatrix, np.ndarray]],
) -> AttributeCategoryMatrix:
    """Per-attribute overwrite by classifier reliability, defined for two agents.

    For each attribute row: keep the agent's own row when its accuracy is at
    least the peer's (ties keep own), otherwise take the peer's row entirely.
    """
    if len(received) != 1:
        raise ConfigurationError("weighted fusion is defined pairwise (exactly one peer)")
    own_matrix, own_q = own
    other_matrix, other_q = received[0]
    if other_matrix.values.shape != own_matrix.values.shape:
        raise ProtocolError("matrix dimensions differ between agents")
    own_q = np.asarray(own_q, dtype=float)
    other_q = np.asarray(other_q, dtype=float)
    if own_q.shape != (own_matrix.n_attributes,) or other_q.shape != own_q.shape:
        raise ProtocolError("accuracy vectors must have one entry per attribute")
    keep_own = own_q >= other_q
    return AttributeCategoryMatrix(
        np.where(keep_own[:, None], own_matrix.values, other_matrix.values)
    )


def encode_message(msg: MatrixMessage) -> bytes:
    """Deterministic canonical byte encoding of a message."""
    m, n = msg.matrix.n_attributes, msg.matrix.n_categories
    if m > 0xFFFF or n > 0xFFFF:
        raise ConfigurationError("matrix dimensions exceed the wire format limit")
    flags = (msg.agent_id << 1) | (_FLAG_Q if msg.accuracy_vector is not None else 0)
    header = HEADER.pack(MAGIC, WIRE_VERSION, m, n, flags, msg.iteration)
    payload = np.ascontiguousarray(msg.matrix.values, dtype="<f8").tobytes()
    if msg.accuracy_vector is not None:
        payload += np.ascontiguousarray(msg.accuracy_vector, dtype="<f8").tobytes()
    return header + payload


def decode_message(data: bytes) -> MatrixMessage:
    """Inverse of :func:`encode_message`, with positioned errors for bad input."""
    if len(data) < HEADER.size:
        raise DecodeError(
            f"truncated header at byte {len(data)}: need {HEADER.size} bytes"
        )
    magic, version, m, n, flags, iteration = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r} at byte 0")
    if version != WIRE_VERSION:
        raise DecodeError(f"unsupported version {version} at byte 4")
    if m == 0 or n == 0:
        raise DecodeError(f"zero matrix dimension ({m}x{n}) at byte 6")
    has_q = bool(flags & _FLAG_Q)
    expected = HEADER.size + m * n * 8 + (m * 8 if has_q else 0)
    if len(data) < expected:
        raise DecodeError(f"truncated payload at byte {len(data)}: need {expected} bytes")
    if len(data) > expected:
        raise DecodeError(f"trailing data at byte {expected}")
    values = (
        np.frombuffer(data, dtype="<f8", count=m * n, offset=HEADER.size)
        .reshape(m, n)
        .astype(float)
    )
    accuracy = None
    if has_q:
        accuracy = np.frombuffer(
            data, dtype="<f8", count=m, offset=HEADER.size + m * n * 8
        ).astype(float)
    try:
        return MatrixMessage(
            agent_id=flags >> 1,
            iteration=iteration,
            matrix=AttributeCategoryMatrix(values),
            accuracy_vector=accuracy,
        )
    except ConfigurationError as exc:
        raise DecodeError(f"invalid payload values after byte {HEADER.size}: {exc}") from exc

