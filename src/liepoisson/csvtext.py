"""The ``%.17e`` text of a table of floats, as ``simulate`` writes it.

Each value is written as Python's ``'%.17e' % v`` writes it, byte for
byte: its 18 significant digits correctly rounded, ties to even.  CPython
gets there through its bignum dtoa, about half a microsecond per value once
18 digits are past its fast path.  This module computes the same digits
with a few numpy operations per block of values:

* ``k = floor(log10|x|)`` guesses the decimal exponent;
* ``N = round(|x| 10^(17-k))`` is formed as ``p + t``, where ``p, e`` is the
  exact product of ``|x|`` and ``hi`` (Dekker's TwoProduct by Veltkamp
  splitting, Numer. Math. 18, 1971), ``t = e + |x| lo``, and ``hi + lo`` is
  ``10^(17-k)`` as a double-double.  ``p`` is an integer below 2^63, and
  ``p + t`` is within 2^-43 of the exact product;
* the 18 digits come from int64 division by 10^4 and a table of the
  10 000 four-digit strings.

As in Loitsch's fast path with a bignum fallback (PLDI 2010), a value is
written by ``%`` instead, and spliced in, when the fast path cannot decide
it: its fraction lies within ``_TIE_MARGIN`` of one half (an exact tie,
which dtoa rounds to even, or too close to tell), ``floor(p + t)`` falls
below ``10^17`` (a guess of ``k`` one too high) or ``N`` reaches ``10^18``
(one too low; at the right ``k`` no double rounds up to ``10^18``, as 18
digits are finer than the spacing of doubles), or ``|x|`` lies outside
``[_LOW, _HIGH)`` (subnormal, beyond the power table, an infinity or a
NaN).  A zero is written directly.  So the text is the one ``%`` writes on
any IEEE-754 platform: ``log10`` only guesses, and every guess is checked.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

import numpy as np

from .tolerances import CSV_BLOCK_VALUES

# One value's field, as seven native 32-bit words of ASCII bytes: the sign
# (or NUL), the lead digit, the point and the first fraction digit; four
# words of four digits; "e", the exponent's sign, its hundreds digit (or
# NUL) and its tens digit; its units digit, the separator and two NULs.
# The NULs are dropped when the block is joined.
_WORDS = 7
_SEP = 25  # the separator's byte
_NUL = b"\0"

_LOW, _HIGH = 1e-280, 1e280  # |x| whose power 10^(17-k) and its split stay normal
_TIE_MARGIN = 2.0**-20  # far above the 2^-43 error of p + t
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: a 53-bit double as two 26-bit halves
_K_MIN, _K_MAX = -281, 280  # floor(log10|x|) on [_LOW, _HIGH), or a guess one off


def _split(a):
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


def _exponent(k: int) -> bytes:
    """The last two words of a field of exponent ``k``, separator zeroed."""
    hundreds, rest = divmod(abs(k), 100)
    return b"e%c%c%02d\0\0\0" % (b"-+"[k >= 0], 48 + hundreds if hundreds else 0, rest)


def _exponent_guess(a: np.ndarray) -> np.ndarray:
    """``floor(log10 a)``, which may be one off next to a power of ten; the
    range checks refuse a wrong guess."""
    return np.floor(np.log10(a))


@cache
def _powers() -> np.ndarray:
    """The rows ``hi``, its two halves, and ``lo`` of ``10^(17-k)``, at
    ``k - _K_MIN``, ``lo`` the residual ``10^(17-k) - hi`` rounded once;
    built from exact ints on first use."""
    powers = {}
    exact = 1
    for j in range(17 - _K_MIN + 1):
        hi = float(exact)
        powers[j] = hi, float(exact - int(hi))
        exact *= 10
    den = 1
    for j in range(1, _K_MAX - 17 + 1):
        den *= 10
        hi = 1 / den  # int true division rounds correctly
        num, pow2 = hi.as_integer_ratio()
        powers[-j] = hi, (pow2 - num * den) / (pow2 * den)
    hi, lo = np.array([powers[17 - k] for k in range(_K_MIN, _K_MAX + 1)]).T
    return np.stack([hi, *_split(hi), lo])


@cache
def _words() -> tuple[np.ndarray, ...]:
    """Word tables, built on first use: the four digits of every int below
    10^4; the first word of a field, at ``128 * negative + N // 10^16``;
    the last two words of a field, at ``k - _K_MIN``."""
    ascii = np.arange(48, 58, dtype=np.uint8)
    digits = np.stack(np.meshgrid(ascii, ascii, ascii, ascii, indexing="ij"), axis=-1)
    # N // 10^16 is below 100 in every field kept; a refused one may reach 100
    heads = b"".join(b"%c%d.%d" % (sign, *divmod(top % 100, 10)) for sign in b"\0-" for top in range(128))
    exponents = b"".join(map(_exponent, range(_K_MIN, _K_MAX + 1)))
    return (digits.reshape(-1, 4).view(np.uint32).ravel(), np.frombuffer(heads, np.uint32),
            *np.frombuffer(exponents, np.uint32).reshape(-1, 2).T.copy())


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``N`` and ``k - _K_MIN`` of the values ``x``, and the mask of the
    values whose ``N`` or ``k`` the fast path cannot vouch for.  A NaN is
    read as an infinity, so that no ordered comparison meets a NaN, and
    every value outside ``[_LOW, _HIGH)`` as 1.0 before any cast."""
    a = np.where(np.isfinite(x), np.abs(x), np.inf)
    normal = (a >= _LOW) & (a < _HIGH)
    zero = a == 0
    a = np.where(normal, a, 1.0)
    ik = _exponent_guess(a).astype(np.intp) - _K_MIN
    hi, hi_high, hi_low, lo = (row.take(ik) for row in _powers())
    p = a * hi
    a_high, a_low = _split(a)
    t = (((a_high * hi_high - p) + a_high * hi_low) + a_low * hi_high) + a_low * hi_low + a * lo
    whole = np.floor(t)
    frac = t - whole
    n = p.astype(np.int64) + whole.astype(np.int64)
    slow = ~((normal | zero) & (np.abs(frac - 0.5) > _TIE_MARGIN) & (n >= 10**17))
    n += frac > 0.5
    slow |= n >= 10**18
    n[zero] = 0
    return n, ik, slow


def _fast_text(x: np.ndarray, seps: np.ndarray) -> str:
    """The fields of the values ``x``, each ended by its separator."""
    n, ik, slow = _decimal(x)
    digits, heads, tens, units = _words()
    words = np.empty((len(x), _WORDS), np.uint32)
    for column in range(4, 0, -1):
        q = n // 10_000
        words[:, column] = digits.take(n - q * 10_000)
        n = q
    words[:, 0] = heads.take(n + 128 * np.signbit(x), mode="clip")
    words[:, 5] = tens.take(ik)
    words[:, 6] = units.take(ik)
    buf = words.view(np.uint8)
    buf[:, _SEP] = seps
    for i in np.flatnonzero(slow):  # at most 25 bytes: "-d.<17 digits>e-ddd"
        buf[i, :_SEP] = np.frombuffer((b"%.17e" % float(x[i])).ljust(_SEP, _NUL), np.uint8)
    return buf.tobytes().translate(None, _NUL).decode()


def row_blocks(table: np.ndarray) -> Iterator[str]:
    """The text of ``table``'s rows, each value ``%.17e``, separated by
    commas and ended by newlines, in blocks of whole rows of at most
    ``CSV_BLOCK_VALUES`` values (one row when a row holds more)."""
    rows, cols = table.shape
    step = max(1, CSV_BLOCK_VALUES // cols)
    seps = np.full(cols, ord(","), np.uint8)
    seps[-1] = ord("\n")
    seps = np.tile(seps, min(step, rows))
    for start in range(0, rows, step):
        values = table[start:start + step].ravel()
        yield _fast_text(values, seps[:values.size])
