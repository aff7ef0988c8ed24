"""Property and corruption tests for the historic tile codec.

The codec's contract is absolute: a tile either decodes to exactly the
slices it was built from, or decoding raises -- no torn tail, flipped
byte, or trailing garbage may ever yield a plausible-but-wrong stack.
Round-tripping is checked property-style over arbitrary int64 stacks;
the refusal paths are exercised byte by byte.  This build writes format
version 2 (differenced along every axis) and still reads version 1
(differenced along time only).
"""

from __future__ import annotations

import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DomainError, StorageError
from repro.retention import TileStore, decode_tile, encode_tile, tile_name
from repro.retention.tiles import (
    _FIXED,
    _U32,
    _U64,
    _ZLIB_LEVEL,
    CODEC_ZLIB,
    MAGIC,
    VERSION,
    _pack_width,
    zigzag_decode,
    zigzag_encode,
)

I64 = np.iinfo(np.int64)


def _v1_tile(stack, times) -> bytes:
    """A format-1 tile: the encoder of the builds before version 2, which
    differenced along time only (``TestVersionOne`` pins it to bytes such
    a build wrote)."""
    stack = np.ascontiguousarray(stack, dtype=np.int64)
    deltas = np.concatenate((stack[:1], np.diff(stack, axis=0)), axis=0)
    width, packed = _pack_width(zigzag_encode(deltas.reshape(-1)))
    payload = zlib.compress(packed, _ZLIB_LEVEL)
    header = bytearray(
        _FIXED.pack(MAGIC, 1, CODEC_ZLIB, width, stack.ndim - 1, stack.shape[0])
    )
    for n in stack.shape[1:]:
        header += _U32.pack(n)
    header += _U64.pack(len(packed)) + _U64.pack(len(payload))
    header += np.asarray(times, dtype="<i8").tobytes()
    header += _U32.pack(zlib.crc32(header))
    return bytes(header) + payload + _U32.pack(zlib.crc32(payload))


@st.composite
def tile_inputs(draw):
    k = draw(st.integers(1, 5))
    shape = draw(
        st.lists(st.just(1) | st.integers(2, 5), min_size=1, max_size=3).map(tuple)
    )
    count = k * int(np.prod(shape))
    # the full range: differences along the cell axes wrap modulo 2**64
    values = draw(
        st.lists(
            st.sampled_from([I64.min, I64.max, -1, 0, 1])
            | st.integers(I64.min, I64.max),
            min_size=count,
            max_size=count,
        )
    )
    stack = np.asarray(values, dtype=np.int64).reshape((k, *shape))
    start = draw(st.integers(-(2**40), 2**40))
    gaps = draw(st.lists(st.integers(1, 50), min_size=k - 1, max_size=k - 1))
    times = np.asarray(
        [start] + list(start + np.cumsum(gaps, dtype=np.int64)), dtype=np.int64
    )
    return stack, times


class TestRoundTrip:
    @settings(max_examples=60)
    @given(tile_inputs())
    def test_decode_inverts_encode_exactly(self, inputs):
        stack, times = inputs
        out_stack, out_times = decode_tile(encode_tile(stack, times))
        np.testing.assert_array_equal(out_stack, stack)
        np.testing.assert_array_equal(out_times, times)

    @settings(max_examples=30)
    @given(tile_inputs())
    def test_encoding_is_byte_deterministic(self, inputs):
        stack, times = inputs
        data = encode_tile(stack, times)
        assert data == encode_tile(stack.copy(), times)
        assert data[4] == VERSION == 2

    def test_encoding_leaves_its_input_alone(self):
        stack = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
        encode_tile(stack, np.array([1, 2]))
        np.testing.assert_array_equal(stack, np.arange(24).reshape(2, 3, 4))

    def test_wrapping_corners_round_trip(self):
        corners = np.array([I64.min, I64.max], dtype=np.int64)
        stack = corners[np.indices((3, 2, 1, 2)).sum(axis=0) % 2]
        out_stack, _ = decode_tile(encode_tile(stack, np.array([0, 1, 2])))
        np.testing.assert_array_equal(out_stack, stack)

    def test_a_stack_of_sparse_updates_packs_to_a_quarter_of_version_1(self):
        """Each instance's updates touch <= 5% of the cells; version 2
        stores those updates, version 1 their prefix sums."""
        rng = np.random.default_rng(28)
        k, shape = 12, (16, 32, 8)
        stack = np.zeros((k, *shape), dtype=np.int64)
        cells = int(np.prod(shape))
        for instance in stack.reshape(k, cells):
            touched = rng.choice(cells, cells // 25, replace=False)
            instance[touched] = rng.integers(1, 10, touched.size)
        for axis in range(stack.ndim):
            np.cumsum(stack, axis=axis, out=stack)
        times = np.arange(k, dtype=np.int64) * 3
        v2, v1 = encode_tile(stack, times), _v1_tile(stack, times)
        np.testing.assert_array_equal(decode_tile(v2)[0], stack)
        assert 4 * len(v2) <= len(v1)

    @settings(max_examples=60)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
    def test_zigzag_round_trip_full_int64(self, values):
        arr = np.asarray(values, dtype=np.int64)
        np.testing.assert_array_equal(zigzag_decode(zigzag_encode(arr)), arr)

    def test_wide_value_range_forces_eight_byte_width(self):
        stack = np.array([[0, 2**55], [1, -(2**55)]], dtype=np.int64)
        times = np.array([3, 9], dtype=np.int64)
        out_stack, out_times = decode_tile(encode_tile(stack, times))
        np.testing.assert_array_equal(out_stack, stack)
        np.testing.assert_array_equal(out_times, times)


#: a tile the version-1 encoder wrote (commit 350b6ab), and what it holds
FROZEN_V1 = bytes.fromhex(
    "5250544c0101080203000000020000000300000090000000000000003000000000000000"
    "040000000000000009000000000000000a00000000000000d25d2c60789c636280002628"
    "cd86c6e780d22c509a114ab3a289f3a0e9e76240024c0875d2509a1d4af343695e280d00"
    "1c8e00835130d4c0"
)
FROZEN_V1_STACK = [
    [[1, 1, 3], [1, 4, 2]],
    [[0, -2, 5], [7, 7, 7]],
    [[2**40, 0, -9], [3, -1, 0]],
]
FROZEN_V1_TIMES = [4, 9, 10]


class TestVersionOne:
    def test_a_tile_an_older_build_wrote_still_decodes(self):
        stack, times = decode_tile(FROZEN_V1)
        assert stack.tolist() == FROZEN_V1_STACK
        assert times.tolist() == FROZEN_V1_TIMES
        assert _v1_tile(FROZEN_V1_STACK, FROZEN_V1_TIMES) == FROZEN_V1

    @settings(max_examples=30)
    @given(tile_inputs())
    def test_version_1_decodes_through_the_same_function(self, inputs):
        stack, times = inputs
        out_stack, out_times = decode_tile(_v1_tile(stack, times))
        np.testing.assert_array_equal(out_stack, stack)
        np.testing.assert_array_equal(out_times, times)


class TestRefusals:
    def _tile(self):
        rng = np.random.default_rng(5)
        stack = rng.integers(-50, 50, size=(4, 3, 3)).astype(np.int64)
        times = np.array([2, 5, 6, 11], dtype=np.int64)
        return encode_tile(stack, times)

    def test_torn_tail_refused_at_every_length(self):
        data = self._tile()
        # decoding any strict prefix must raise, never mis-decode
        for cut in range(len(data)):
            with pytest.raises(StorageError):
                decode_tile(data[:cut])

    def test_corrupt_payload_checksum_refused(self):
        data = bytearray(self._tile())
        data[-10] ^= 0xFF  # inside the compressed payload
        with pytest.raises(StorageError):
            decode_tile(bytes(data))

    def test_corrupt_header_checksum_refused(self):
        data = bytearray(self._tile())
        data[8] ^= 0xFF  # slice-count field, covered by the header CRC
        with pytest.raises(StorageError):
            decode_tile(bytes(data))

    def test_trailing_garbage_refused(self):
        with pytest.raises(StorageError):
            decode_tile(self._tile() + b"x")

    def test_bad_magic_refused(self):
        data = bytearray(self._tile())
        data[0] = ord(b"X")
        with pytest.raises(StorageError):
            decode_tile(bytes(data))

    def test_foreign_codec_id_refused_before_the_payload(self):
        data = bytearray(self._tile())
        header_len = 12 + 4 * 2 + 16 + 8 * 4  # fixed, shape, lengths, times
        data[5] = 2  # the codec byte: zlib (1) is the only codec
        data[header_len : header_len + 4] = zlib.crc32(
            bytes(data[:header_len])
        ).to_bytes(4, "little")
        data[-10] ^= 0xFF  # a payload it must not get as far as checking
        with pytest.raises(StorageError, match="codec id 2"):
            decode_tile(bytes(data))

    @pytest.mark.parametrize("version", [0, 3])
    def test_unknown_version_refused_before_the_payload(self, version):
        data = bytearray(self._tile())
        header_len = 12 + 4 * 2 + 16 + 8 * 4
        data[4] = version
        data[header_len : header_len + 4] = zlib.crc32(
            bytes(data[:header_len])
        ).to_bytes(4, "little")
        data[-10] ^= 0xFF  # a payload it must not get as far as checking
        with pytest.raises(StorageError, match=f"tile version {version}"):
            decode_tile(bytes(data))

    def test_empty_and_inverted_inputs_rejected(self):
        with pytest.raises(DomainError):
            encode_tile(np.empty((0, 2), dtype=np.int64), np.empty(0))
        with pytest.raises(DomainError):
            encode_tile(
                np.zeros((2, 2), dtype=np.int64),
                np.array([5, 5], dtype=np.int64),
            )


class TestTileStore:
    def _stack(self, seed=7):
        rng = np.random.default_rng(seed)
        stack = np.cumsum(
            rng.integers(0, 9, size=(3, 4, 2)), axis=0
        ).astype(np.int64)
        return stack, np.array([10, 12, 19], dtype=np.int64)

    def test_write_then_slice_at_every_time(self, tmp_path):
        store = TileStore(tmp_path)
        stack, times = self._stack()
        name = store.write_tile(stack, times)
        assert name == tile_name(10, 19)
        for i, t in enumerate(times):
            np.testing.assert_array_equal(store.slice_at(int(t)), stack[i])
        assert store.slice_at(11) is None  # inside the span, not occurring
        assert store.slice_at(40) is None
        assert store.verify() == 1

    def test_rewrite_is_byte_identical(self, tmp_path):
        store = TileStore(tmp_path)
        stack, times = self._stack()
        name = store.write_tile(stack, times)
        first = (tmp_path / name).read_bytes()
        store.write_tile(stack, times)  # a replayed demotion
        assert (tmp_path / name).read_bytes() == first

    def test_rescan_sees_published_tiles_only(self, tmp_path):
        store = TileStore(tmp_path)
        stack, times = self._stack()
        store.write_tile(stack, times)
        (tmp_path / "tile-99-100.tile.tmp").write_bytes(b"torn")
        fresh = TileStore(tmp_path)
        assert fresh.tile_names() == [tile_name(10, 19)]
        np.testing.assert_array_equal(fresh.spans(), [[10, 19]])

    def test_versions_read_the_fixed_header_only(self, tmp_path):
        store = TileStore(tmp_path)
        stack, times = self._stack()
        store.write_tile(stack, times)
        (tmp_path / tile_name(30, 31)).write_bytes(FROZEN_V1[:-1])  # torn
        (tmp_path / tile_name(40, 41)).write_bytes(b"RPT")
        store.rescan()
        assert store.versions() == {"1": 1, "2": 1, "unreadable": 1}

    def test_corrupt_tile_on_disk_refused_not_misread(self, tmp_path):
        store = TileStore(tmp_path)
        stack, times = self._stack()
        name = store.write_tile(stack, times)
        path = tmp_path / name
        data = bytearray(path.read_bytes())
        data[-3] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            TileStore(tmp_path).slice_at(10)


def _served_slices(data, order) -> tuple[list, int]:
    """``TileStore.slice_at`` of each position in ``order`` over the tile
    ``data`` alone in a fresh directory, and the store's peak resident
    bytes."""
    times = decode_tile(data)[1]
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / tile_name(int(times[0]), int(times[-1]))
        path.write_bytes(data)
        store = TileStore(root)
        served, peak = [], 0
        for pos in order:
            served.append(np.array(store.slice_at(int(times[pos]))))
            peak = max(peak, store.resident_bytes())
    return served, peak


class TestSliceDecode:
    """A store decodes one slice of a tile, not the stack: the time deltas
    up to it, then one ``cumsum`` per cell axis.  ``decode_tile`` is the
    reference."""

    @settings(max_examples=60)
    @given(tile_inputs(), st.booleans(), st.data())
    def test_a_slice_is_its_row_of_the_decoded_stack(self, inputs, v1, data):
        stack, times = inputs
        tile = _v1_tile(stack, times) if v1 else encode_tile(stack, times)
        order = data.draw(
            st.lists(st.integers(0, len(times) - 1), min_size=1, max_size=8)
        )
        served, peak = _served_slices(tile, order)
        decoded = decode_tile(tile)[0]
        for pos, ps in zip(order, served):
            np.testing.assert_array_equal(ps, decoded[pos])
            np.testing.assert_array_equal(ps, stack[pos])
        # never more than the one decoded int64 stack it replaces
        assert peak <= stack.nbytes

    def test_a_frozen_version_1_tile_serves_its_slices(self):
        order = [2, 0, 1, 2, 0]
        served, _ = _served_slices(FROZEN_V1, order)
        assert [ps.tolist() for ps in served] == [FROZEN_V1_STACK[p] for p in order]

    def test_wide_values_are_exact_when_nothing_can_be_memoised(self):
        """At eight bytes a value the packed planes fill the budget: every
        slice is decoded afresh, and exactly."""
        stack = np.array([[I64.max, I64.min], [I64.min, 1], [-1, I64.max]])
        tile = encode_tile(stack, np.array([0, 1, 2]))
        served, peak = _served_slices(tile, [1, 2, 0, 1])
        assert [ps.tolist() for ps in served] == [stack[p].tolist() for p in [1, 2, 0, 1]]
        assert peak == stack.nbytes  # the planes alone

    def test_a_tile_is_read_once_and_memoises_what_it_decoded(self, tmp_path):
        store = TileStore(tmp_path)
        stack = np.cumsum(np.arange(60).reshape(5, 3, 4), axis=0)
        store.write_tile(stack, np.arange(10, 15))
        first = store.slice_at(13)
        assert store.slice_at(13) is first and not first.flags.writeable
        (tmp_path / tile_name(10, 14)).unlink()  # resident: no second read
        np.testing.assert_array_equal(store.slice_at(14), stack[4])

    def test_a_torn_tile_is_refused_at_its_first_slice(self, tmp_path):
        store = TileStore(tmp_path)
        stack = np.arange(24).reshape(2, 3, 4)
        name = store.write_tile(stack, np.array([3, 4]))
        data = (tmp_path / name).read_bytes()
        (tmp_path / name).write_bytes(data[:-7])
        with pytest.raises(StorageError, match="torn tile"):
            TileStore(tmp_path).slice_at(4)
