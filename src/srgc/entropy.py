"""Context-adaptive binary arithmetic coding of integer symbol streams.

Binary arithmetic coder on 32-bit low/high registers with underflow
handling, driven by adaptive per-context bit counts.  Integers are
binarized as: a zero flag, a sign bit, then the magnitude minus one as an
exp-Golomb code whose unary prefix is context-coded per position and whose
suffix bits are bypass (fixed 1/2) coded.  Each call to
:func:`entropy_encode` starts from fresh context state, so payloads are
self-contained; the categories below exist so different bitstream sections
never share statistics.  The exact format is documented in
``docs/bitstream.md``.
"""

import numpy as np

from .errors import DecodeDesyncError

_STATE_BITS = 32
_MASK = (1 << _STATE_BITS) - 1
_TOP = 1 << (_STATE_BITS - 1)
_SECOND = _TOP >> 1
_COUNT_CAP = 1 << 12
_MAX_PREFIX = 48  # magnitudes beyond 2^48 can only be corruption

# number of unary-prefix contexts per symbol category
CATEGORIES = {
    "labels": 8,
    "disparities": 4,
    "structure": 2,
    "gft": 8,
    "residual": 8,
    "group": 4,
}


class _BitWriter:
    __slots__ = ("buf", "cur", "nbits")

    def __init__(self):
        self.buf = bytearray()
        self.cur = 0
        self.nbits = 0

    def write(self, bit):
        self.cur = (self.cur << 1) | bit
        self.nbits += 1
        if self.nbits == 8:
            self.buf.append(self.cur)
            self.cur = 0
            self.nbits = 0

    def getvalue(self):
        if self.nbits:
            self.buf.append(self.cur << (8 - self.nbits))
            self.cur = 0
            self.nbits = 0
        return bytes(self.buf)


class _BitReader:
    __slots__ = ("data", "pos", "limit")

    def __init__(self, data):
        self.data = data
        self.pos = 0
        self.limit = 8 * len(data)

    def read(self):
        p = self.pos
        self.pos = p + 1
        if p >= self.limit:
            return 0  # zero padding past the payload
        return (self.data[p >> 3] >> (7 - (p & 7))) & 1


class _Contexts:
    """Adaptive bit counts per context: zero flag, sign, unary positions."""

    __slots__ = ("zero", "sign", "unary")

    def __init__(self, n_unary):
        self.zero = [1, 1]
        self.sign = [1, 1]
        self.unary = [[1, 1] for _ in range(n_unary)]


def _ctx_for(category):
    try:
        return _Contexts(CATEGORIES[category])
    except KeyError:
        raise ValueError(f"unknown context category {category!r}") from None


class BinaryEncoder:
    def __init__(self):
        self.low = 0
        self.high = _MASK
        self.pending = 0
        self.out = _BitWriter()

    def _renorm(self, low, high):
        w = self.out.write
        while (low ^ high) & _TOP == 0:
            b = low >> (_STATE_BITS - 1)
            w(b)
            nb = b ^ 1
            for _ in range(self.pending):
                w(nb)
            self.pending = 0
            low = (low << 1) & _MASK
            high = ((high << 1) & _MASK) | 1
        while low & ~high & _SECOND:
            self.pending += 1
            low = (low << 1) & (_MASK >> 1)
            high = ((high << 1) & (_MASK >> 1)) | _TOP | 1
        self.low, self.high = low, high

    def encode(self, ctx, bit):
        c0, c1 = ctx
        total = c0 + c1
        low, high = self.low, self.high
        split = low + ((high - low + 1) * c0) // total - 1
        if bit:
            low = split + 1
            ctx[1] = c1 + 1
        else:
            high = split
            ctx[0] = c0 + 1
        if total + 1 >= _COUNT_CAP:
            ctx[0] = (ctx[0] + 1) >> 1
            ctx[1] = (ctx[1] + 1) >> 1
        self._renorm(low, high)

    def encode_bypass(self, bit):
        low, high = self.low, self.high
        split = low + ((high - low + 1) >> 1) - 1
        if bit:
            low = split + 1
        else:
            high = split
        self._renorm(low, high)

    def finish(self):
        self.out.write(1)
        return self.out.getvalue()


class BinaryDecoder:
    def __init__(self, data):
        self.low = 0
        self.high = _MASK
        self.inp = _BitReader(data)
        code = 0
        for _ in range(_STATE_BITS):
            code = (code << 1) | self.inp.read()
        self.code = code

    @property
    def bit_offset(self):
        return max(0, self.inp.pos - _STATE_BITS)

    def _renorm(self, low, high):
        code = self.code
        read = self.inp.read
        while (low ^ high) & _TOP == 0:
            low = (low << 1) & _MASK
            high = ((high << 1) & _MASK) | 1
            code = ((code << 1) & _MASK) | read()
        while low & ~high & _SECOND:
            low = (low << 1) & (_MASK >> 1)
            high = ((high << 1) & (_MASK >> 1)) | _TOP | 1
            code = (code & _TOP) | ((code << 1) & (_MASK >> 1)) | read()
        self.low, self.high, self.code = low, high, code

    def decode(self, ctx):
        c0, c1 = ctx
        total = c0 + c1
        low, high = self.low, self.high
        split = low + ((high - low + 1) * c0) // total - 1
        if self.code > split:
            bit = 1
            low = split + 1
            ctx[1] = c1 + 1
        else:
            bit = 0
            high = split
            ctx[0] = c0 + 1
        if total + 1 >= _COUNT_CAP:
            ctx[0] = (ctx[0] + 1) >> 1
            ctx[1] = (ctx[1] + 1) >> 1
        self._renorm(low, high)
        return bit

    def decode_bypass(self):
        low, high = self.low, self.high
        split = low + ((high - low + 1) >> 1) - 1
        if self.code > split:
            bit = 1
            low = split + 1
        else:
            bit = 0
            high = split
        self._renorm(low, high)
        return bit


def _encode_int(enc, ctxs, v):
    if v == 0:
        enc.encode(ctxs.zero, 0)
        return
    enc.encode(ctxs.zero, 1)
    enc.encode(ctxs.sign, 1 if v < 0 else 0)
    n = abs(v)  # exp-Golomb of |v| - 1: prefix unary(k), suffix k bits of n
    k = n.bit_length() - 1
    unary = ctxs.unary
    last = len(unary) - 1
    for i in range(k):
        enc.encode(unary[min(i, last)], 1)
    enc.encode(unary[min(k, last)], 0)
    for i in range(k - 1, -1, -1):
        enc.encode_bypass((n >> i) & 1)


def _decode_int(dec, ctxs):
    if dec.decode(ctxs.zero) == 0:
        return 0
    negative = dec.decode(ctxs.sign)
    unary = ctxs.unary
    last = len(unary) - 1
    k = 0
    while dec.decode(unary[min(k, last)]):
        k += 1
        if k > _MAX_PREFIX:
            raise DecodeDesyncError("magnitude prefix overflow", dec.bit_offset)
    n = 1
    for _ in range(k):
        n = (n << 1) | dec.decode_bypass()
    return -n if negative else n


def entropy_encode(symbols, ctx_model) -> bytes:
    """Losslessly encode an integer sequence under one context category."""
    ctxs = _ctx_for(ctx_model)
    enc = BinaryEncoder()
    for v in symbols:
        _encode_int(enc, ctxs, int(v))
    return enc.finish()


def entropy_decode(data, count, ctx_model):
    """Decode exactly ``count`` integers from an entropy payload."""
    ctxs = _ctx_for(ctx_model)
    dec = BinaryDecoder(data)
    return np.array([_decode_int(dec, ctxs) for _ in range(count)], dtype=np.int64)
