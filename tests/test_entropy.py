"""Entropy coder: lossless round trips, compression of trivial streams."""

import hashlib

import numpy as np
import pytest

from srgc.entropy import entropy_decode, entropy_encode
from srgc.errors import DecodeDesyncError


class TestRoundtrip:
    def test_empty(self):
        payload = entropy_encode([], "gft")
        assert len(payload) >= 1
        assert entropy_decode(payload, 0, "gft").size == 0

    def test_small_known(self):
        syms = [0, 1, -1, 2, -2, 255, -255, 12345, -12345]
        payload = entropy_encode(syms, "gft")
        assert entropy_decode(payload, len(syms), "gft").tolist() == syms

    def test_random_block(self):
        rng = np.random.default_rng(21)
        syms = rng.integers(-255, 255, size=100_000, endpoint=True)
        payload = entropy_encode(syms, "gft")
        back = entropy_decode(payload, syms.size, "gft")
        assert np.array_equal(back, syms)

    def test_each_category(self):
        rng = np.random.default_rng(22)
        syms = rng.integers(-40, 40, size=500)
        for cat in ("labels", "disparities", "structure", "gft", "residual", "group"):
            back = entropy_decode(entropy_encode(syms, cat), syms.size, cat)
            assert np.array_equal(back, syms)

    def test_unknown_category(self):
        with pytest.raises(ValueError):
            entropy_encode([1], "bogus")

    def test_skewed_stream(self):
        rng = np.random.default_rng(23)
        syms = np.where(rng.random(20_000) < 0.95, 0, rng.integers(-5, 5, size=20_000))
        payload = entropy_encode(syms, "residual")
        assert np.array_equal(entropy_decode(payload, syms.size, "residual"), syms)
        assert len(payload) < 20_000  # adaptive model beats 1 byte/symbol


class TestMagnitudeLimit:
    """|v| < 2**49 keeps the unary prefix within the 48 bits the decoder
    accepts; the encoder refuses anything larger rather than writing a
    payload its own decoder rejects."""

    def test_largest_magnitudes_roundtrip(self):
        syms = [2**49 - 1, -(2**49 - 1), 0, 5]
        payload = entropy_encode(np.array(syms, dtype=np.int64), "gft")
        assert entropy_decode(payload, len(syms), "gft").tolist() == syms

    @pytest.mark.parametrize("v", [2**49, -(2**49), np.iinfo(np.int64).min])
    def test_larger_magnitude_rejected(self, v):
        # np.abs(INT64_MIN) is negative, so only a signed comparison catches it
        with pytest.raises(ValueError, match="2\\*\\*49"):
            entropy_encode(np.array([3, v], dtype=np.int64), "gft")


class TestCompression:
    def test_all_zero_run_compresses(self):
        syms = np.zeros(10_000, dtype=np.int64)
        payload = entropy_encode(syms, "residual")
        assert len(payload) < 200
        assert len(payload) < 0.02 * 4 * syms.size  # < 2% of raw int32 size


class TestDesync:
    def test_all_ones_payload_raises_with_offset(self):
        # a saturated bit pattern decodes into an impossible magnitude prefix
        garbage = bytes([0xFF]) * 512
        with pytest.raises(DecodeDesyncError) as err:
            entropy_decode(garbage, 64, "gft")
        assert err.value.bit_offset >= 0


def _golden_stream(seed, n):
    """60% zeros, 30% in [-8, 8], 10% of magnitude up to 2**49 - 1: every
    context hits the count cap at n=6000, and the large values code long
    unary prefixes and bypass suffixes."""
    rng = np.random.default_rng(seed)
    kind = rng.random(n)
    small = rng.integers(-8, 8, size=n, endpoint=True)
    sign = np.sign(rng.random(n) - 0.5).astype(np.int64)
    big = sign * (2 ** rng.uniform(0, 48.99, size=n)).astype(np.int64)
    return np.where(kind < 0.6, 0, np.where(kind < 0.9, small, big))


def _decode_outcome(data, count, category):
    """The first 16 hex digits of the decoded symbols' SHA-256, or the
    desync error with its bit offset."""
    try:
        back = entropy_decode(data, count, category)
    except DecodeDesyncError as e:
        return f"DecodeDesyncError@{e.bit_offset}"
    return hashlib.sha256(back.tobytes()).hexdigest()[:16]


class TestGolden:
    """The entropy format, pinned by digests.  The coder is integer
    arithmetic only, so these hold on every machine; a rewrite that
    changes the format fails here even if it still round-trips."""

    PAYLOADS = {  # category: (stream seed, payload bytes, payload SHA-256)
        "disparities": (100, 4007, "33a8ed5a064df20df1e73ad5f78fb6d22f0794434b7f12666f95f3f19c2a09b5"),
        "gft": (101, 4351, "4ae4a215b353c1a157ae1eac3c8b756305692b8d1a940dcead0e78245a2c070f"),
        "group": (102, 4354, "4b354aa3aadd13aea9fdd873f9c05171a2f94d7cdb833e4fc0fc05d53355c299"),
        "labels": (103, 4228, "f85e3d36285fc987064359339b3e5a704588ad2dd1f6f81f373a8713c27a50fb"),
        "residual": (104, 4173, "b3c36a7eee525e0d3e8299368cfbecdcaeea1be4fdba0f56f08cc146eb3ae164"),
        "structure": (105, 4467, "88537d2a0809e07ca5c234983346a0291a769a7237465bcaee6d6784902eaa31"),
    }

    @pytest.mark.parametrize("category", sorted(PAYLOADS))
    def test_payload(self, category):
        seed, size, digest = self.PAYLOADS[category]
        syms = _golden_stream(seed, 6000)
        payload = entropy_encode(syms, category)
        assert (len(payload), hashlib.sha256(payload).hexdigest()) == (size, digest)
        assert np.array_equal(entropy_decode(payload, syms.size, category), syms)

    RANDOM = [  # 64 "gft" symbols from 0-39 random bytes
        "d3dc72c984a9af07", "c9f298a07da38b67", "94cb535d3b957442", "74a28e202a4abdc5",
        "b9a3145f05633c0f", "cb6c1bf10dbea4c4", "0348b9f5e6f92848", "eb18e56e011d313e",
    ]

    @pytest.mark.parametrize("seed", range(len(RANDOM)))
    def test_random_payload(self, seed):
        rng = np.random.default_rng(200 + seed)
        data = rng.integers(0, 256, size=int(rng.integers(0, 40)), dtype=np.uint8).tobytes()
        assert _decode_outcome(data, 64, "gft") == self.RANDOM[seed]

    DENSE = [  # 64 "gft" symbols from 16 bytes with the top five bits set
        "DecodeDesyncError@14", "9f7e8efa45498c4d", "92443c3d5da1f668", "c71b5889843bae7f",
    ]

    @pytest.mark.parametrize("seed", range(len(DENSE)))
    def test_dense_payload(self, seed):
        rng = np.random.default_rng(400 + seed)
        data = (rng.integers(0, 256, size=16, dtype=np.uint8) | 0xF8).tobytes()
        assert _decode_outcome(data, 64, "gft") == self.DENSE[seed]

    TRUNCATED = {  # category: outcome of decoding the first third of a payload
        "disparities": "4378345018d02668",
        "gft": "DecodeDesyncError@736",
        "group": "DecodeDesyncError@1974",
        "labels": "DecodeDesyncError@1083",
        "residual": "595d4947570655ea",
        "structure": "056fd6723d6fa63f",
    }

    @pytest.mark.parametrize("category", sorted(TRUNCATED))
    def test_truncated_payload(self, category):
        syms = _golden_stream(300 + sorted(self.TRUNCATED).index(category), 400)
        payload = entropy_encode(syms, category)
        cut = payload[: len(payload) // 3]
        assert _decode_outcome(cut, syms.size, category) == self.TRUNCATED[category]
