"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial maps exponent tuples (one int per variable) to nonzero Fraction
coefficients.  Iteration and serialization are in lexicographic exponent
order, so all emitted output is byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence

from .errors import DegreeMismatchError, MalformedInputError

Exponent = tuple[int, ...]


class MultiPoly:
    """Sparse polynomial in a fixed number of variables.

    >>> x = MultiPoly.variable(2, 0); y = MultiPoly.variable(2, 1)
    >>> (x + y) * (x - y) == x**2 - y**2
    True
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != nvars or any(e < 0 for e in expo):
                    raise MalformedInputError(f"bad exponent {expo} for {nvars} variables")
                c = Fraction(coeff)
                if c:
                    clean[expo] = clean.get(expo, Fraction(0)) + c
                    if not clean[expo]:
                        del clean[expo]
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    @classmethod
    def linear_form(cls, coeffs: Sequence) -> "MultiPoly":
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            c = Fraction(c)
            if c:
                expo = [0] * n
                expo[i] = 1
                terms[tuple(expo)] = c
        return cls(n, terms)

    @classmethod
    def monomial(cls, expo: Sequence[int], coeff=1) -> "MultiPoly":
        return cls(len(expo), {tuple(expo): Fraction(coeff)})

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            v = out.get(expo, Fraction(0)) + c
            if v:
                out[expo] = v
            else:
                out.pop(expo, None)
        return MultiPoly(self.nvars, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return MultiPoly(self.nvars, {})
            return MultiPoly(self.nvars, {e: v * c for e, v in self.terms.items()})
        other = self._coerce(other)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, Fraction(0)) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        return MultiPoly(self.nvars, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, scalar) -> "MultiPoly":
        c = Fraction(scalar)
        return MultiPoly(self.nvars, {e: v / c for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise MalformedInputError("negative power of a polynomial")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise MalformedInputError("mixed variable counts")
            return other
        return MultiPoly.constant(self.nvars, other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ------------------------------------------------------------

    def items(self):
        """Terms in lexicographic exponent order."""
        return sorted(self.terms.items())

    def coefficient(self, expo: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if degree is None:
            return len(degs) == 1
        return degs == {degree}

    def evaluate(self, point: Sequence) -> Fraction:
        vals = [Fraction(v) for v in point]
        if len(vals) != self.nvars:
            raise MalformedInputError("evaluation point has wrong length")
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            prod = coeff
            for v, e in zip(vals, expo):
                if e:
                    prod *= v ** e
            total += prod
        return total

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute images[i] for variable i (images share one variable space)."""
        if len(images) != self.nvars:
            raise MalformedInputError("need one image per variable")
        if self.nvars == 0:
            return MultiPoly(0, dict(self.terms))
        n_out = images[0].nvars
        out = MultiPoly.zero(n_out)
        for expo, coeff in self.terms.items():
            term = MultiPoly.constant(n_out, coeff)
            for img, e in zip(images, expo):
                if e:
                    term = term * img ** e
            out = out + term
        return out

    def partial(self, index: int) -> "MultiPoly":
        """Partial derivative with respect to variable `index`."""
        out = {}
        for expo, coeff in self.terms.items():
            e = expo[index]
            if e:
                new = list(expo)
                new[index] = e - 1
                out[tuple(new)] = coeff * e
        return MultiPoly(self.nvars, out)

    def apply_derivative(self, expo: Sequence[int]) -> "MultiPoly":
        """Apply the constant-coefficient operator prod_i d/dx_i^expo[i].

        Monomial action: d^b x^a = a!/(a-b)! x^(a-b), zero when any b_i > a_i.
        """
        out = {}
        for mono, coeff in self.terms.items():
            if any(b > a for a, b in zip(mono, expo)):
                continue
            c = coeff
            new = []
            for a, b in zip(mono, expo):
                new.append(a - b)
                if b:
                    c *= Fraction(factorial(a), factorial(a - b))
            key = tuple(new)
            v = out.get(key, Fraction(0)) + c
            if v:
                out[key] = v
            else:
                del out[key]
        return MultiPoly(self.nvars, out)

    def to_str(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for expo, coeff in self.items():
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(expo) if e]
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.to_str()})"


def power_of_linear_forms(alpha: Sequence[int]) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """Write the monomial x^alpha as a combination sum_j c_j * l_j(x)^d, d = |alpha|.

    Uses the classical signed-cube identity
        y_1...y_d = 1/(2^d d!) * sum_{eps in {+-1}^d} (prod eps) (sum eps_i y_i)^d
    with the y_i running over the variables of alpha with multiplicity.  The
    returned linear forms are coefficient vectors over the same variables.
    Folding eps -> -eps halves the term count.  Requires |alpha| >= 1.
    """
    alpha = tuple(int(a) for a in alpha)
    d = sum(alpha)
    if d < 1:
        raise DegreeMismatchError("monomial must have positive degree")
    nvars = len(alpha)
    support = [i for i, a in enumerate(alpha) if a]
    if len(support) == 1:
        form = tuple(Fraction(int(i == support[0])) for i in range(nvars))
        return [(Fraction(1), form)]
    slots = [i for i, a in enumerate(alpha) for _ in range(a)]
    scale = Fraction(2, 2 ** d * factorial(d))  # doubled: eps_1 fixed to +1
    out = []
    for bits in range(2 ** (d - 1)):
        eps = [1] + [1 if (bits >> k) & 1 == 0 else -1 for k in range(d - 1)]
        coeffs = [Fraction(0)] * nvars
        sign = 1
        for slot, e in zip(slots, eps):
            coeffs[slot] += e
            sign *= e
        out.append((scale * sign, tuple(coeffs)))
    return out


def weighted_monomials(weights: Sequence[int], degree: int) -> list[Exponent]:
    """Exponent tuples with given weighted degree, in lexicographic order."""
    n = len(weights)
    if n == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, i):
        if i == n:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        w = weights[i]
        for e in range(remaining // w + 1):
            rec(prefix + [e], remaining - e * w, i + 1)

    rec([], degree, 0)
    return sorted(out)
