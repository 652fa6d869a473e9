"""Batched L-float arithmetic on int64 mantissa/exponent lanes.

The bulk engine carries every sigma/psi value as a pair of parallel
int64 arrays ``(m, e)`` — mantissa and exponent of
:class:`repro.arithmetic.lfloat.LFloat`, with zero encoded as
``(0, 0)`` exactly like the scalar format.  The kernels here reproduce
the scalar normalizer **bit for bit** in every rounding mode, which is
what lets the bulk engine promise byte-identical results to the
``sweep`` and ``event`` engines (verified by the differential suite and
by randomized kernel-vs-scalar tests).

Why int64 is enough — and where the envelope ends:

* A product of two L-bit mantissas needs ``2L`` bits.
* An aligned addition needs ``2L + 2`` bits *after sticky capping*
  (below); the reciprocal numerator ``2**(2L - 1)`` needs ``2L``.
* Hence every intermediate fits a signed 64-bit lane iff ``L <= 30``
  (:data:`repro.engines.dispatcher.MAX_BULK_PRECISION`).

**Sticky capping.**  The scalar adder aligns mantissas with an
arbitrary-precision shift ``m_hi << (e_hi - e_lo)``, which int64 cannot
do once the exponent gap exceeds ~33 bits.  But only the top ``L + 1``
bits of the aligned sum plus one "is anything below nonzero" sticky bit
can influence the rounded result, so for a gap ``diff > L`` the pair
``(diff, m_lo)`` is replaced by ``(L + 1, 1)``: the quotient, the
remainder-nonzero test and the round-to-nearest guard bit (which sits
above the capped region only when ``diff <= L``, and is provably zero
otherwise) all come out identical in all three rounding modes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import LFloatRangeError

__all__ = [
    "bit_length",
    "lf_add",
    "lf_from_int",
    "lf_mul",
    "lf_reciprocal",
    "uint_bits_arr",
]

_LOW32 = np.int64(0xFFFFFFFF)


def bit_length(x: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for non-negative int64 below 2**62.

    ``np.frexp`` on a float64 returns the exponent, which equals the bit
    length for exact integer inputs; splitting into 32-bit halves keeps
    every conversion exact (a direct conversion of a 62-bit value would
    round at 53 bits and misreport lengths near binade boundaries).
    """
    hi = x >> 32
    lo = x & _LOW32
    return np.where(
        hi > 0,
        np.frexp(hi.astype(np.float64))[1] + 32,
        np.frexp(lo.astype(np.float64))[1],
    ).astype(np.int64)


def _round_up_mask(num, rshift, mode: str):
    """Lanes whose quotient must be bumped by one (remainder nonzero)."""
    if mode == "floor":
        return None
    has_rem = (num & ((np.int64(1) << rshift) - 1)) != 0
    if mode == "ceil":
        return has_rem
    if mode == "nearest":
        # Guard bit == top dropped bit; it is inside the remainder mask,
        # so a zero remainder implies a zero guard — no extra gating.
        return ((num >> (rshift - 1)) & 1) != 0
    raise ValueError("unknown rounding mode {!r}".format(mode))


def _normalize(num: np.ndarray, L: int, mode: str):
    """Vectorized ``_normalize_int`` for ``num >= 2**L`` (``rshift >= 1``).

    Both call sites (add, mul) guarantee ``num`` is at least ``2**L``,
    so the left-shift branch of the scalar normalizer never applies.
    Returns ``(q, e)`` exactly as the scalar ``(mantissa, bit length
    incl. overflow bump)`` pair.
    """
    e = bit_length(num)
    rshift = e - L
    q = num >> rshift
    up = _round_up_mask(num, rshift, mode)
    if up is not None:
        q = q + up
        overflow = q == (np.int64(1) << L)
        q = np.where(overflow, q >> 1, q)
        e = e + overflow
    return q, e


def _check_range(e: np.ndarray, L: int) -> None:
    limit = (1 << L) - 1
    if np.any(np.abs(e) > limit):
        bad = int(e[np.argmax(np.abs(e))])
        raise LFloatRangeError(
            "exponent {} outside [-{}, {}] for L={}".format(
                bad, limit, limit, L
            )
        )


def lf_from_int(x, L: int):
    """Elementwise ``LFloat.from_int`` for non-negative ``x < 2**L``.

    Such integers are exact: the mantissa is ``x`` shifted up to ``L``
    bits and the exponent its bit length (``from_int(1)`` is
    ``(2**(L-1), 1)``); zero stays ``(0, 0)``.
    """
    e = bit_length(x)
    return x << (L - e), e


def lf_add(ma, ea, mb, eb, L: int, mode: str):
    """Elementwise ``a.add(b, mode)`` on (mantissa, exponent) lanes.

    Operand order matters exactly as in the scalar adder: on an exponent
    tie the **first** operand is treated as the high one (the scalar
    tests ``se >= oe``), and a zero operand returns the other operand's
    lanes verbatim.
    """
    ma = np.asarray(ma, dtype=np.int64)
    ea = np.asarray(ea, dtype=np.int64)
    mb = np.asarray(mb, dtype=np.int64)
    eb = np.asarray(eb, dtype=np.int64)
    a_zero = ma == 0
    b_zero = mb == 0
    # Neutralize zero lanes with a harmless normalized value so the
    # generic path below cannot trip on them; results are overwritten.
    one = np.int64(1) << (L - 1)
    ma_s = np.where(a_zero, one, ma)
    ea_s = np.where(a_zero, 0, ea)
    mb_s = np.where(b_zero, one, mb)
    eb_s = np.where(b_zero, 0, eb)

    a_is_hi = ea_s >= eb_s
    m_hi = np.where(a_is_hi, ma_s, mb_s)
    e_hi = np.where(a_is_hi, ea_s, eb_s)
    m_lo = np.where(a_is_hi, mb_s, ma_s)
    e_lo = np.where(a_is_hi, eb_s, ea_s)

    diff = e_hi - e_lo
    capped = diff > L
    diff_eff = np.where(capped, L + 1, diff)
    m_lo_eff = np.where(capped, 1, m_lo)
    e_lo_eff = e_hi - diff_eff

    num = (m_hi << diff_eff) + m_lo_eff  # < 2**(2L + 2) <= 2**62
    q, e_n = _normalize(num, L, mode)
    res_m = q
    res_e = e_n + e_lo_eff - L

    res_m = np.where(a_zero, mb, np.where(b_zero, ma, res_m))
    res_e = np.where(a_zero, eb, np.where(b_zero, ea, res_e))
    _check_range(res_e, L)
    return res_m, res_e


def lf_mul(ma, ea, mb, eb, L: int, mode: str):
    """Elementwise ``a.mul(b, mode)`` on (mantissa, exponent) lanes.

    The scalar power-of-two shortcuts are exact and bit-identical to
    the generic path (their normalization drops only zero bits), so the
    kernel runs the generic path uniformly.
    """
    ma = np.asarray(ma, dtype=np.int64)
    ea = np.asarray(ea, dtype=np.int64)
    mb = np.asarray(mb, dtype=np.int64)
    eb = np.asarray(eb, dtype=np.int64)
    zero = (ma == 0) | (mb == 0)
    one = np.int64(1) << (L - 1)
    ma_s = np.where(zero, one, ma)
    mb_s = np.where(zero, one, mb)
    num = ma_s * mb_s  # < 2**(2L) <= 2**60
    q, e_n = _normalize(num, L, mode)
    res_m = np.where(zero, 0, q)
    res_e = np.where(zero, 0, e_n + ea + eb - 2 * L)
    _check_range(res_e, L)
    return res_m, res_e


def lf_reciprocal(m, e, L: int):
    """Elementwise floor-rounded ``1 / x`` on nonzero (m, e) lanes.

    Mirrors the scalar ``_build(1, m, L - e, FLOOR)``: a power-of-two
    mantissa (necessarily ``2**(L-1)``) inverts exactly to
    ``(2**(L-1), 2 - e)``; otherwise the floored quotient
    ``2**(2L-1) // m`` is already normalized and the exponent is
    ``1 - e``.
    """
    m = np.asarray(m, dtype=np.int64)
    e = np.asarray(e, dtype=np.int64)
    if np.any(m == 0):
        raise ZeroDivisionError("reciprocal of zero")
    pow2 = m == (np.int64(1) << (L - 1))
    safe_m = np.where(pow2, 1, m)  # avoid the exact-power division lane
    q = (np.int64(1) << (2 * L - 1)) // safe_m
    res_m = np.where(pow2, np.int64(1) << (L - 1), q)
    res_e = np.where(pow2, 2 - e, 1 - e)
    _check_range(res_e, L)
    return res_m, res_e


def uint_bits_arr(value: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.wire.bits.uint_bits` (varint width).

    ``uint_bits(v) = b + 2 * (bit_length(b) - 1)`` with
    ``b = bit_length(v + 1)`` — the Elias-gamma-style self-delimiting
    width the wire layer charges for unbounded counters.
    """
    value = np.asarray(value, dtype=np.int64)
    b = bit_length(value + 1)
    return b + 2 * (bit_length(b) - 1)
