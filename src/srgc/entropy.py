"""Context-adaptive binary arithmetic coding of integer symbol streams.

Binary arithmetic coder on 32-bit low/high registers with underflow
handling, driven by adaptive per-context bit counts.  Integers are
binarized as: a zero flag, a sign bit, then the magnitude minus one as an
exp-Golomb code whose unary prefix is context-coded per position and whose
suffix bits are bypass coded.  A bypass bit is coded like any other bit
under a ``(1, 1)`` count pair that never adapts, i.e. at probability 1/2.
Magnitudes of 2**49 or more would need a unary prefix longer than the
decoder accepts, so the encoder rejects them.  Each call to
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
_MAX_PREFIX = 48  # longer unary prefixes can only be corruption
_LIMIT = 1 << (_MAX_PREFIX + 1)  # |v| < _LIMIT has a prefix of at most 48
_BYPASS = (1, 1)  # never adapts: its split is low + (range >> 1) - 1

# number of unary-prefix contexts per symbol category
CATEGORIES = {
    "labels": 8,
    "disparities": 4,
    "structure": 2,
    "gft": 8,
    "residual": 8,
    "group": 4,
}


def _contexts(category):
    """Fresh count pairs for the zero flag, the sign and each unary position."""
    if category not in CATEGORIES:
        raise ValueError(f"unknown context category {category!r}")
    return [1, 1], [1, 1], [[1, 1] for _ in range(CATEGORIES[category])]


def _bins(symbols, category):
    """Each symbol's (context, bit) pairs in stream order: zero flag, sign,
    unary prefix of k = bit_length(|v|) - 1 on capped positions, then the
    k low bits of |v|, most significant first, as bypass bits."""
    zero, sign, unary = _contexts(category)
    last = len(unary) - 1
    for v in symbols:
        v = int(v)
        if v == 0:
            yield zero, 0
            continue
        if v >= _LIMIT or v <= -_LIMIT:
            raise ValueError(f"symbol {v} has magnitude of 2**49 or more")
        yield zero, 1
        yield sign, int(v < 0)
        n = abs(v)
        k = n.bit_length() - 1
        for i in range(k):
            yield unary[min(i, last)], 1
        yield unary[min(k, last)], 0
        for i in range(k - 1, -1, -1):
            yield _BYPASS, (n >> i) & 1


def entropy_encode(symbols, category) -> bytes:
    """Losslessly encode an integer sequence under one context category."""
    out = bytearray()
    low, high, pending = 0, _MASK, 0
    for ctx, bit in _bins(symbols, category):
        c0, c1 = ctx
        total = c0 + c1
        split = low + ((high - low + 1) * c0) // total - 1
        if bit:
            low = split + 1
        else:
            high = split
        if ctx is not _BYPASS:
            ctx[bit] += 1
            if total + 1 >= _COUNT_CAP:
                ctx[0] = (ctx[0] + 1) >> 1
                ctx[1] = (ctx[1] + 1) >> 1
        while (low ^ high) & _TOP == 0:
            b = low >> (_STATE_BITS - 1)
            out.append(b)
            if pending:
                out += bytes([b ^ 1]) * pending
                pending = 0
            low = (low << 1) & _MASK
            high = ((high << 1) & _MASK) | 1
        while low & ~high & _SECOND:
            pending += 1
            low = (low << 1) & (_MASK >> 1)
            high = ((high << 1) & (_MASK >> 1)) | _TOP | 1
    out.append(1)
    return np.packbits(np.frombuffer(out, dtype=np.uint8)).tobytes()


def entropy_decode(data, count, category):
    """Decode exactly ``count`` integers from an entropy payload.  Bits past
    the end of ``data`` read as zero."""
    zero, sign, unary = _contexts(category)
    last = len(unary) - 1
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tobytes()
    n_bits = len(bits)
    low, high = 0, _MASK
    head = bytes(data[: _STATE_BITS // 8]).ljust(_STATE_BITS // 8, b"\0")
    code, pos = int.from_bytes(head, "big"), _STATE_BITS

    def bit(ctx):
        nonlocal low, high, code, pos
        c0, c1 = ctx
        total = c0 + c1
        split = low + ((high - low + 1) * c0) // total - 1
        if code > split:
            b = 1
            low = split + 1
        else:
            b = 0
            high = split
        if ctx is not _BYPASS:
            ctx[b] += 1
            if total + 1 >= _COUNT_CAP:
                ctx[0] = (ctx[0] + 1) >> 1
                ctx[1] = (ctx[1] + 1) >> 1
        while (low ^ high) & _TOP == 0:
            low = (low << 1) & _MASK
            high = ((high << 1) & _MASK) | 1
            code = ((code << 1) & _MASK) | (bits[pos] if pos < n_bits else 0)
            pos += 1
        while low & ~high & _SECOND:
            low = (low << 1) & (_MASK >> 1)
            high = ((high << 1) & (_MASK >> 1)) | _TOP | 1
            code = (code & _TOP) | ((code << 1) & (_MASK >> 1))
            code |= bits[pos] if pos < n_bits else 0
            pos += 1
        return b

    out = []
    for _ in range(count):
        if not bit(zero):
            out.append(0)
            continue
        negative = bit(sign)
        k = 0
        while bit(unary[min(k, last)]):
            k += 1
            if k > _MAX_PREFIX:
                raise DecodeDesyncError("magnitude prefix overflow", pos - _STATE_BITS)
        n = 1
        for _ in range(k):
            n = (n << 1) | bit(_BYPASS)
        out.append(-n if negative else n)
    return np.array(out, dtype=np.int64)
