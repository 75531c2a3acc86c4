"""Context-adaptive binary arithmetic coding of integer symbol streams.

Binary arithmetic coder on 32-bit low/high registers with underflow
handling, driven by adaptive per-context bit counts.  Integers are
binarized as: a zero flag, a sign bit, then the magnitude minus one as an
exp-Golomb code whose unary prefix is context-coded per position and whose
suffix bits are bypass coded, under a ``(1, 1)`` count pair that never
adapts.  Magnitudes of 2**49 or more would need a unary prefix longer than
the decoder accepts, so the encoder rejects them.  Every payload starts
from fresh contexts: ``head`` symbols under the ``extent`` category, then
the rest under its own, so sections never share statistics.  The exact
format is documented in ``docs/bitstream.md``.
"""

import numpy as np

from .errors import DecodeDesyncError

_STATE_BITS = 32
_MASK = (1 << _STATE_BITS) - 1
_TOP = 1 << (_STATE_BITS - 1)
_SECOND = _TOP >> 1
_COUNT_CAP = 1 << 12
_MAX_PREFIX = 48  # longer unary prefixes can only be corruption
SYMBOL_LIMIT = 1 << (_MAX_PREFIX + 1)  # |v| < SYMBOL_LIMIT has a prefix of at most 48
_BYPASS = (1, 1)  # never adapts: its split is low + (range >> 1) - 1
_SUFFIX = {"0": (_BYPASS, 0), "1": (_BYPASS, 1)}

# number of unary-prefix contexts per symbol category
CATEGORIES = {"labels": 8, "disparities": 4, "structure": 2, "gft": 8, "residual": 8,
              "group": 4, "extent": 8}


def _contexts(category):
    """Fresh count pairs for the zero flag, the sign and each unary
    position 0..48; positions past the category's count share its last."""
    if category not in CATEGORIES:
        raise ValueError(f"unknown context category {category!r}")
    unary = [[1, 1] for _ in range(CATEGORIES[category])]
    return [1, 1], [1, 1], unary + unary[-1:] * (_MAX_PREFIX + 1 - len(unary))


def _bin_tables(category):
    """Fresh contexts as (context, bit) bins: a zero's, a nonzero's zero
    flag and sign by sign, and each unary position's 1 and its 0."""
    zero, sign, unary = _contexts(category)
    lead = [(zero, 1), (sign, 0)], [(zero, 1), (sign, 1)]
    return ((zero, 0),), lead, [(c, 1) for c in unary], [(c, 0) for c in unary]


def entropy_encode(symbols, category, head=0) -> bytes:
    """Losslessly encode integers, the first ``head`` under the ``extent``
    contexts.  A nonzero's unary prefix is k = bit_length(|v|) - 1, its
    suffix the k low bits of |v|, most significant first."""
    rest = _bin_tables(category)
    nil, lead, ones, stops = _bin_tables("extent")
    out = bytearray()
    low, high, pending = 0, _MASK, 0
    for i, v in enumerate(symbols):
        if i == head:
            nil, lead, ones, stops = rest
        v = int(v)
        if v == 0:
            bins = nil
        elif -SYMBOL_LIMIT < v < SYMBOL_LIMIT:
            suffix = bin(abs(v))[3:]
            bins = lead[v < 0] + ones[: len(suffix)]
            bins.append(stops[len(suffix)])
            bins += map(_SUFFIX.__getitem__, suffix)
        else:
            raise ValueError(f"symbol {v} has magnitude of 2**49 or more")
        for ctx, bit in bins:
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


def entropy_decode(data, count, category, head=0):
    """Decode exactly ``count`` integers, the first ``head`` under the
    ``extent`` contexts; bits past the end of ``data`` read as zero.  A
    pass decodes one bin, of ``stage`` 0 zero flag, 1 sign, 2 unary
    prefix or 3 suffix (``k`` bits left)."""
    rest = _contexts(category)
    zero, sign, unary = _contexts("extent") if head else rest
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tobytes()
    n_bits = len(bits)
    low, high = 0, _MASK
    code = int.from_bytes(bytes(data[:4]).ljust(4, b"\0"), "big")
    pos = _STATE_BITS
    out = []
    ctx, stage, negative, k, n, i = zero, 0, 0, 0, 0, 0
    while i < count:
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
        if stage == 0:
            if b:
                ctx, stage = sign, 1
                continue
            v = 0
        elif stage == 1:
            ctx, stage, negative, k = unary[0], 2, b, 0
            continue
        elif stage == 2:
            if b:
                k += 1
                if k > _MAX_PREFIX:
                    raise DecodeDesyncError("magnitude prefix overflow", pos - _STATE_BITS)
                ctx = unary[k]
                continue
            if k:
                ctx, stage, n = _BYPASS, 3, 1
                continue
            v = 1
        else:
            n = (n << 1) | b
            k -= 1
            if k:
                continue
            v = n
        out.append(-v if negative else v)
        i += 1
        if i == head:
            zero, sign, unary = rest
        ctx, stage = zero, 0
    return np.array(out, dtype=np.int64)
