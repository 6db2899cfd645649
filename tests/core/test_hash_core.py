"""The one-call hash core equals the three-call chain it replaced, and
the bulk count-min kfunc equals per-key ``hash_cnt`` calls.

``fast_hash64``/``fast_hash32``/``crc_hash32`` run their rounds
directly on ``int`` keys, without pre-masking to 64 bits, and
``fast_hash32`` no longer calls ``fast_hash64``.  The reference below is
a frozen copy of the earlier chain (``fast_hash32`` -> ``fast_hash64``
-> ``_to_int``); every hash value must stay bit-identical to it, for
keys and seeds outside [0, 2^64) too.  ``fast_hash32_src`` (the rounds
as source, for fused inline specs) must agree with ``fast_hash32``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.algorithms.hashing import (
    HashAlgos,
    crc_hash32,
    fast_hash32,
    fast_hash32_src,
    fast_hash64,
)
from repro.ebpf.cost_model import ExecMode
from repro.ebpf.runtime import BpfRuntime

# -- frozen reference: the three-call chain ----------------------------------

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1


def _ref_to_int(key):
    if isinstance(key, bytes):
        if len(key) <= 8:
            return int.from_bytes(key, "little")
        x = 0
        for i in range(0, len(key), 8):
            chunk = int.from_bytes(key[i : i + 8], "little")
            x = ((x * 0x100000001B3) ^ chunk) & _M64
        return x
    return key & _M64


def _ref_fast_hash64(key, seed=0):
    x = (_ref_to_int(key) + (seed + 1) * 0x9E3779B97F4A7C15) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def _ref_fast_hash32(key, seed=0):
    return _ref_fast_hash64(key, seed) & _M32


def _ref_crc_hash32(key, seed=0):
    x = (_ref_to_int(key) ^ (seed * 0x9E3779B1 + 0x85EBCA77)) & _M64
    x = (x * 0xC2B2AE3D27D4EB4F) & _M64
    x ^= x >> 29
    x = (x * 0x165667B19E3779F9) & _M64
    x ^= x >> 32
    return x & _M32


# -- key and seed domains ------------------------------------------------------

INT_KEYS = st.one_of(
    st.integers(0, _M64),
    st.integers(-(1 << 70), -1),
    st.integers(1 << 64, 1 << 130),
    st.integers(0, (1 << 104) - 1),  # Packet.key_int: the packed 5-tuple
    st.booleans(),
)
BYTES_KEYS = st.one_of(
    st.binary(max_size=8),
    st.binary(min_size=9, max_size=40),
)
KEYS = st.one_of(INT_KEYS, BYTES_KEYS)
SEEDS = st.one_of(
    st.integers(-(1 << 70), -1),
    st.just(0),
    st.integers(0, 5000),
    st.integers(1 << 64, 1 << 80),
)

EDGE_KEYS = (
    0, -1, -(1 << 64), _M64, 1 << 64, (1 << 104) - 1, True, False,
    b"", b"\xff" * 8, b"backend-0", b"backend-1",
)
EDGE_SEEDS = (-1, 0, 1, 1000, 1 << 64, -(1 << 64))


@given(KEYS, SEEDS)
@settings(max_examples=400, deadline=None)
def test_hashes_equal_the_three_call_chain(key, seed):
    assert fast_hash64(key, seed) == _ref_fast_hash64(key, seed)
    assert fast_hash32(key, seed) == _ref_fast_hash32(key, seed)
    assert crc_hash32(key, seed) == _ref_crc_hash32(key, seed)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("key", EDGE_KEYS, ids=repr)
def test_edge_keys_equal_the_three_call_chain(key, seed):
    assert fast_hash64(key, seed) == _ref_fast_hash64(key, seed)
    assert fast_hash32(key, seed) == _ref_fast_hash32(key, seed)
    assert crc_hash32(key, seed) == _ref_crc_hash32(key, seed)


def test_default_seed_and_ranges():
    for key in EDGE_KEYS:
        assert fast_hash64(key) == _ref_fast_hash64(key, 0)
        assert 0 <= fast_hash64(key) <= _M64
        assert 0 <= fast_hash32(key) <= _M32
        assert 0 <= crc_hash32(key) <= _M32


def test_long_bytes_keys_do_not_collide():
    # Keys differing only past the 8th byte fold to different ints.
    for h in (fast_hash64, fast_hash32, crc_hash32):
        assert h(b"backend-0", 900) != h(b"backend-1", 900)


def _eval_src(key, seed):
    scope = {"key": key}
    exec("\n".join(fast_hash32_src("h", "key", seed)), scope)
    return scope["h"]


@given(st.one_of(INT_KEYS, st.integers(0, _M64)), SEEDS)
@settings(max_examples=200, deadline=None)
@example(0, 0)
@example(_M64, 3000)
@example(1 << 63, -1)
def test_fast_hash32_src_equals_fast_hash32(key, seed):
    assert _eval_src(key, seed) == fast_hash32(key, seed)


def test_fast_hash32_src_evaluates_key_once():
    calls = []

    def key():
        calls.append(1)
        return 12345

    scope = {"key": key}
    exec("\n".join(fast_hash32_src("h", "key()", 7)), scope)
    assert scope["h"] == fast_hash32(12345, 7)
    assert len(calls) == 1


# -- hash_cnt_bulk == len(keys) x hash_cnt ----------------------------------

MODES = (ExecMode.PURE_EBPF, ExecMode.ENETSTL, ExecMode.KERNEL)
BULK_KEYS = st.lists(
    st.one_of(st.integers(0, (1 << 104) - 1), st.binary(max_size=16)),
    max_size=24,
)


def _cnt_pair(mode, keys, k, rows, width, delta):
    per_key, bulk = BpfRuntime(mode=mode), BpfRuntime(mode=mode)
    m_per_key = [[0] * width for _ in range(rows)]
    m_bulk = [[0] * width for _ in range(rows)]
    algos = HashAlgos(per_key)
    for key in keys:
        algos.hash_cnt(m_per_key, key, k, delta)
    HashAlgos(bulk).hash_cnt_bulk(m_bulk, keys, k, delta)
    return (m_per_key, per_key.cycles), (m_bulk, bulk.cycles)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
@given(
    keys=BULK_KEYS,
    k=st.integers(1, 6),
    extra_rows=st.integers(0, 2),
    width=st.integers(1, 97),
    delta=st.integers(-3, 5),
)
@settings(max_examples=60, deadline=None)
def test_hash_cnt_bulk_equals_per_key_calls(mode, keys, k, extra_rows, width, delta):
    (m_ref, c_ref), (m_bulk, c_bulk) = _cnt_pair(
        mode, keys, k, k + extra_rows, width, delta
    )
    assert m_bulk == m_ref
    assert c_bulk.total == c_ref.total
    assert c_bulk.breakdown() == c_ref.breakdown()


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
def test_hash_cnt_bulk_mixed_widths(mode):
    # k below the row count, rows of different widths, delta != 1.
    keys = [0, 1 << 103, b"backend-0", b"backend-1", True, 7, 7]
    per_key, bulk = BpfRuntime(mode=mode), BpfRuntime(mode=mode)
    m_ref = [[0] * w for w in (13, 64, 7, 5)]
    m_bulk = [[0] * w for w in (13, 64, 7, 5)]
    for key in keys:
        HashAlgos(per_key).hash_cnt(m_ref, key, 3, 2)
    HashAlgos(bulk).hash_cnt_bulk(m_bulk, keys, 3, 2)
    assert m_bulk == m_ref
    assert m_bulk[3] == [0] * 5
    assert sum(map(sum, m_bulk)) == 3 * 2 * len(keys)
    assert bulk.cycles.total == per_key.cycles.total
    assert bulk.cycles.breakdown() == per_key.cycles.breakdown()


def test_hash_cnt_bulk_rejects_bad_k():
    algos = HashAlgos(BpfRuntime(mode=ExecMode.ENETSTL))
    with pytest.raises(ValueError):
        algos.hash_cnt_bulk([[0] * 8], [1, 2], 0)
    with pytest.raises(ValueError):
        algos.hash_cnt_bulk([[0] * 8], [1, 2], -1)
    with pytest.raises(ValueError):
        algos.hash_cnt_bulk([[0] * 8, [0] * 8], [1, 2], 3)
    # The checks hold for an empty batch too, and nothing is charged.
    with pytest.raises(ValueError):
        algos.hash_cnt_bulk([[0] * 8], [], 2)
    assert algos.rt.cycles.total == 0


def test_hash_cnt_bulk_empty_batch_charges_nothing():
    rt = BpfRuntime(mode=ExecMode.PURE_EBPF)
    counters = [[0] * 8 for _ in range(3)]
    HashAlgos(rt).hash_cnt_bulk(counters, [], 3)
    assert rt.cycles.total == 0
    assert counters == [[0] * 8 for _ in range(3)]
