from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coopattr import (
    AttributeCategoryMatrix,
    ConfigurationError,
    DecodeError,
    MatrixMessage,
    ProtocolError,
    decode_message,
    encode_message,
    fuse_uniform,
    fuse_weighted,
)


def _matrix(values):
    return AttributeCategoryMatrix(np.asarray(values, dtype=float))


def test_fuse_uniform_two_value_mean():
    fused = fuse_uniform(_matrix([[0.2]]), [_matrix([[0.8]])])
    assert fused.values[0, 0] == pytest.approx(0.5)


def test_fuse_uniform_empty_received_is_identity():
    own = _matrix([[0.3, 0.7]])
    assert fuse_uniform(own, []) is own


def test_fuse_uniform_idempotent_on_identical_matrices():
    own = _matrix([[0.25, 0.75], [0.5, 0.5]])
    fused = fuse_uniform(own, [own, own])
    assert fused == own


def test_fuse_uniform_symmetric_between_agents():
    rng = np.random.default_rng(0)
    a = _matrix(rng.uniform(0, 1, (4, 3)))
    b = _matrix(rng.uniform(0, 1, (4, 3)))
    assert fuse_uniform(a, [b]) == fuse_uniform(b, [a])


def test_fuse_uniform_rejects_dimension_mismatch():
    with pytest.raises(ProtocolError):
        fuse_uniform(_matrix([[0.5]]), [_matrix([[0.5, 0.5]])])


@settings(max_examples=50, deadline=None)
@given(
    arrays(float, (3, 4), elements=st.floats(0, 1)),
    arrays(float, (3, 4), elements=st.floats(0, 1)),
)
def test_fuse_uniform_stays_in_unit_interval(a, b):
    fused = fuse_uniform(_matrix(a), [_matrix(b)])
    assert fused.values.min() >= 0.0 and fused.values.max() <= 1.0


def test_fuse_weighted_keeps_better_rows():
    own = _matrix([[0.9, 0.1]])
    other = _matrix([[0.2, 0.8]])
    kept = fuse_weighted((own, np.array([0.9])), [(other, np.array([0.6]))])
    assert kept == own


def test_fuse_weighted_dominated_agent_adopts_peer_matrix():
    rng = np.random.default_rng(1)
    own = _matrix(rng.uniform(0, 1, (3, 2)))
    other = _matrix(rng.uniform(0, 1, (3, 2)))
    fused = fuse_weighted((own, np.array([0.5, 0.6, 0.4])), [(other, np.array([0.9, 0.8, 0.7]))])
    assert fused == other


def test_fuse_weighted_tie_keeps_own_row_for_both_agents():
    a = _matrix([[0.1, 0.2]])
    b = _matrix([[0.8, 0.9]])
    q = np.array([0.7])
    assert fuse_weighted((a, q), [(b, q)]) == a
    assert fuse_weighted((b, q), [(a, q)]) == b


def test_fuse_weighted_mixed_rows():
    own = _matrix([[0.1, 0.1], [0.2, 0.2]])
    other = _matrix([[0.9, 0.9], [0.8, 0.8]])
    fused = fuse_weighted((own, np.array([0.9, 0.3])), [(other, np.array([0.5, 0.7]))])
    assert fused.values[0].tolist() == [0.1, 0.1]
    assert fused.values[1].tolist() == [0.8, 0.8]


def test_fuse_weighted_requires_exactly_one_peer():
    own = (_matrix([[0.5]]), np.array([0.5]))
    with pytest.raises(ConfigurationError):
        fuse_weighted(own, [])
    with pytest.raises(ConfigurationError):
        fuse_weighted(own, [own, own])


def test_encoded_ten_by_ten_message_is_816_bytes():
    matrix = _matrix(np.full((10, 10), 0.25))
    data = encode_message(MatrixMessage(agent_id=0, iteration=1, matrix=matrix))
    assert len(data) == 816


def test_encoded_message_with_q_adds_eight_bytes_per_attribute():
    matrix = _matrix(np.full((10, 10), 0.25))
    msg = MatrixMessage(agent_id=1, iteration=2, matrix=matrix,
                        accuracy_vector=np.full(10, 0.5))
    assert len(encode_message(msg)) == 816 + 80


def test_round_trip_identity():
    rng = np.random.default_rng(2)
    msg = MatrixMessage(
        agent_id=5,
        iteration=17,
        matrix=_matrix(rng.uniform(0, 1, (3, 7))),
        accuracy_vector=rng.uniform(0, 1, 3),
    )
    assert decode_message(encode_message(msg)) == msg


def test_encoding_is_deterministic():
    matrix = _matrix(np.linspace(0, 1, 12).reshape(3, 4))
    msg = MatrixMessage(agent_id=2, iteration=3, matrix=matrix)
    assert encode_message(msg) == encode_message(msg)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 32767),
    st.integers(1, 2**31 - 1),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_round_trip_property(m, n, agent_id, iteration, with_q, seed):
    rng = np.random.default_rng(seed)
    msg = MatrixMessage(
        agent_id=agent_id,
        iteration=iteration,
        matrix=_matrix(rng.uniform(0, 1, (m, n))),
        accuracy_vector=rng.uniform(0, 1, m) if with_q else None,
    )
    again = decode_message(encode_message(msg))
    assert again == msg
    assert encode_message(again) == encode_message(msg)


def _decode_or_decode_error(data: bytes) -> None:
    try:
        decode_message(data)
    except DecodeError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_decode_random_bytes_raises_only_decode_error(data):
    _decode_or_decode_error(data)
    _decode_or_decode_error(encode_message(MatrixMessage(0, 1, _matrix([[0.5]])))[:16] + data)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_decode_mutated_or_truncated_encoding_raises_only_decode_error(m, n, with_q, seed, data):
    rng = np.random.default_rng(seed)
    msg = MatrixMessage(
        agent_id=int(rng.integers(0, 32768)),
        iteration=int(rng.integers(1, 2**31)),
        matrix=_matrix(rng.uniform(0, 1, (m, n))),
        accuracy_vector=rng.uniform(0, 1, m) if with_q else None,
    )
    encoded = encode_message(msg)
    position = data.draw(st.integers(0, len(encoded) - 1))
    mutated = bytearray(encoded)
    mutated[position] = data.draw(st.integers(0, 255).filter(lambda b: b != encoded[position]))
    _decode_or_decode_error(bytes(mutated))
    with pytest.raises(DecodeError):
        decode_message(encoded[:position])


def test_decode_rejects_empty_buffer():
    with pytest.raises(DecodeError):
        decode_message(b"")


def test_decode_rejects_bad_magic():
    data = bytearray(encode_message(MatrixMessage(0, 1, _matrix([[0.5]]))))
    data[0:4] = b"XXXX"
    with pytest.raises(DecodeError, match="magic"):
        decode_message(bytes(data))


def test_decode_rejects_truncation_and_trailing_bytes():
    data = encode_message(MatrixMessage(0, 1, _matrix([[0.5, 0.5]])))
    with pytest.raises(DecodeError, match="truncated"):
        decode_message(data[:-1])
    with pytest.raises(DecodeError, match="trailing"):
        decode_message(data + b"\x00")


def test_decode_rejects_bad_version():
    data = bytearray(encode_message(MatrixMessage(0, 1, _matrix([[0.5]]))))
    data[4] = 99
    with pytest.raises(DecodeError, match="version"):
        decode_message(bytes(data))


def test_decode_rejects_dimension_overflow():
    data = bytearray(encode_message(MatrixMessage(0, 1, _matrix([[0.5]]))))
    data[6:8] = (40000).to_bytes(2, "little")  # claims far more rows than present
    with pytest.raises(DecodeError, match="truncated payload"):
        decode_message(bytes(data))


def test_message_requires_valid_iteration_and_q():
    matrix = _matrix([[0.5]])
    with pytest.raises(ConfigurationError):
        MatrixMessage(agent_id=0, iteration=0, matrix=matrix)
    with pytest.raises(ConfigurationError):
        MatrixMessage(agent_id=0, iteration=2**32, matrix=matrix)
    last = MatrixMessage(agent_id=0, iteration=2**32 - 1, matrix=matrix)
    assert decode_message(encode_message(last)) == last
    with pytest.raises(ConfigurationError):
        MatrixMessage(agent_id=0, iteration=1, matrix=matrix, accuracy_vector=[0.5, 0.5])
