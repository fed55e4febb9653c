"""Dense univariate polynomial arithmetic over exact rationals.

The indeterminate is written ``u`` and stands for the q-number [x]_q.  Since
[1-x]_{1/q} = 1 - [x]_q, the polynomial identities of the q-Bernstein family
become coefficient-wise statements about these objects, valid for every q at
once; checking them here needs no floating point and no choice of sample
points.

Representation: integer numerators over one shared positive denominator,
kept in lowest terms (the gcd of the denominator and every numerator is 1)
with no trailing zero numerators.  That canonical form is unique per value,
so equality and hashing are structural.  Arithmetic runs on the integers and
normalises once per result; the ``Fraction`` coefficients are built only when
asked for.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kernel import to_rational

__all__ = ["UPoly", "U"]


def _convolve(a, b) -> list[int]:
    """Integer coefficient product of two nonempty numerator sequences."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    width = len(a)
    for j, y in enumerate(b):
        if y:
            out[j : j + width] = [o + x * y for o, x in zip(out[j : j + width], a)]
    return out


class UPoly:
    """Immutable dense polynomial; ``coeffs[i]`` is the coefficient of u**i.

    Trailing zero coefficients are trimmed at construction; the zero
    polynomial has an empty coefficient tuple and degree -inf.  Arithmetic
    is exact and scalars (int, Fraction, rational literal) coerce to
    constant polynomials in mixed expressions.
    """

    __slots__ = ("_num", "_den", "_coeffs")

    def __init__(self, coeffs=()):
        cs = [to_rational(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs)) if cs else 1
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: list[int], den: int) -> None:
        # The one normalisation: trim, then divide out the common gcd.
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        else:
            if den < 0:
                num, den = [-c for c in num], -den
            g = math.gcd(den, *num)
            if g != 1:
                num, den = [c // g for c in num], den // g
        self._num = tuple(num)
        self._den = den
        self._coeffs = None

    @classmethod
    def _make(cls, num: list[int], den: int = 1) -> "UPoly":
        poly = object.__new__(cls)
        poly._set(num, den)
        return poly

    @classmethod
    def from_numerators(cls, num, den: int = 1) -> "UPoly":
        """The polynomial sum_i num[i] u**i / den, from integers directly."""
        if not den:
            raise ZeroDivisionError("polynomial denominator is zero")
        return cls._make(list(num), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(c, self._den) for c in self._num)
        return self._coeffs

    @property
    def degree(self) -> int | float:
        return len(self._num) - 1 if self._num else -math.inf

    @classmethod
    def zero(cls) -> "UPoly":
        return cls._make([])

    @classmethod
    def one(cls) -> "UPoly":
        return cls._make([1])

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "UPoly":
        if power < 0:
            raise ValueError("power must be nonnegative")
        c = to_rational(coeff)
        return cls._make([0] * power + [c.numerator], c.denominator)

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    @staticmethod
    def _as_poly(other) -> "UPoly | None":
        if isinstance(other, UPoly):
            return other
        try:
            c = to_rational(other)
        except TypeError:
            return None
        return UPoly._make([c.numerator], c.denominator)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        o = UPoly._as_poly(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._num == o._num

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __add__(self, other) -> "UPoly":
        o = UPoly._as_poly(other)
        if o is None:
            return NotImplemented
        a, da, b, db = self._num, self._den, o._num, o._den
        g = math.gcd(da, db)
        sa, sb = db // g, da // g  # scale each side to the lcm da * db / g
        den = da * sa
        if len(a) < len(b):
            a, sa, b, sb = b, sb, a, sa
        out = [x * sa for x in a]
        for i, y in enumerate(b):
            out[i] += y * sb
        return UPoly._make(out, den)

    __radd__ = __add__

    def __neg__(self) -> "UPoly":
        return UPoly._make([-c for c in self._num], self._den)

    def __sub__(self, other) -> "UPoly":
        o = UPoly._as_poly(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "UPoly":
        o = UPoly._as_poly(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "UPoly":
        if isinstance(other, UPoly):
            if not self._num or not other._num:
                return UPoly.zero()
            return UPoly._make(_convolve(self._num, other._num), self._den * other._den)
        try:
            c = to_rational(other)
        except TypeError:
            return NotImplemented
        return UPoly._make([c.numerator * a for a in self._num], c.denominator * self._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "UPoly":
        c = to_rational(scalar)
        if c == 0:
            raise ZeroDivisionError("polynomial division by zero")
        return UPoly._make([c.denominator * a for a in self._num], c.numerator * self._den)

    def __pow__(self, n: int) -> "UPoly":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = UPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, value):
        """Evaluate by Horner's rule; exact for rational arguments, floating
        for float arguments."""
        if isinstance(value, float):
            acc = 0.0
            for c in reversed(self._num):
                acc = acc * value + c / self._den
            return acc
        v = to_rational(value)
        if not self._num:
            return Fraction(0)
        # With v = r/s and degree d: s**d p(v) = sum c_i r**i s**(d-i).
        r, s = v.numerator, v.denominator
        acc, spow = self._num[-1], 1
        for c in reversed(self._num[:-1]):
            spow *= s
            acc = acc * r + c * spow
        return Fraction(acc, self._den * spow)

    def compose(self, inner: "UPoly") -> "UPoly":
        """The polynomial self(inner(u)), exactly.

        Kronecker substitution: with inner = B / e and self of degree d, the
        numerators of e**d self(inner) = sum c_i B**i e**(d-i) come out of one
        integer Horner loop run at u = 2**k, read back as signed base-2**k
        digits.  Every coefficient is at most sum |c_i| ||B||_1**i e**(d-i)
        in size, so k is taken one bit past that bound (rounded up to whole
        bytes).
        """
        c = self._num
        if not c:
            return UPoly.zero()
        b, e = inner._num, inner._den
        norm, bound, epow = sum(map(abs, b)), abs(c[-1]), 1
        for x in reversed(c[:-1]):
            epow *= e
            bound = bound * norm + abs(x) * epow
        width = bound.bit_length() // 8 + 1  # bytes per digit, sign bit included
        k = 8 * width
        beta = 0
        for x in reversed(b):
            beta = (beta << k) + x
        acc, epow = c[-1], 1
        for x in reversed(c[:-1]):
            epow *= e
            acc = acc * beta + x * epow
        # Adding 2**(k-1) to every digit makes them all nonnegative.
        size = (len(c) - 1) * (len(b) - 1) + 1 if b else 1
        half = 1 << (k - 1)
        bias = int.from_bytes(half.to_bytes(width, "little") * size, "little")
        raw = (acc + bias).to_bytes(size * width, "little")
        digits = [
            int.from_bytes(raw[i : i + width], "little") - half for i in range(0, len(raw), width)
        ]
        return UPoly._make(digits, self._den * epow)

    def _coeff_list(self) -> str:
        """``c0, c1, ...`` as ``str`` prints each Fraction coefficient, from
        the integers: one gcd per coefficient and no Fraction built."""
        den = self._den
        if den == 1:
            return ", ".join(map(str, self._num))
        parts = []
        for c in self._num:
            g = math.gcd(c, den)
            parts.append(str(c // g) if g == den else f"{c // g}/{den // g}")
        return ", ".join(parts)

    def __repr__(self) -> str:
        return f"UPoly([{self._coeff_list()}])"

    def __str__(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*u")
            else:
                parts.append(f"{c}*u^{i}")
        return " + ".join(parts)


# The indeterminate itself.
U = UPoly((0, 1))
