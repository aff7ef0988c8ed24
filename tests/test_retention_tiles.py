"""Property and corruption tests for the historic tile codec.

The codec's contract is absolute: a tile either decodes to exactly the
slices it was built from, or decoding raises -- no torn tail, flipped
byte, or trailing garbage may ever yield a plausible-but-wrong stack.
Round-tripping is checked property-style over arbitrary int64 stacks;
the refusal paths are exercised byte by byte.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DomainError, StorageError
from repro.retention import TileStore, decode_tile, encode_tile, tile_name
from repro.retention.tiles import zigzag_decode, zigzag_encode


@st.composite
def tile_inputs(draw):
    k = draw(st.integers(1, 5))
    shape = draw(
        st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple)
    )
    count = k * int(np.prod(shape))
    values = draw(
        st.lists(
            st.integers(-(2**62), 2**62), min_size=count, max_size=count
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
        assert encode_tile(stack, times) == encode_tile(stack, times)

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
