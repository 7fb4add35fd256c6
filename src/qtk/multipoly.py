"""Multi-polytopes and exact integration of polynomials over them.

A multi-polytope over a characteristic pair is just a support vector h (one
rational per ray); no convexity is assumed.  Integrals are computed by the
signed vertex expansion: for a linear form l generic on the dual edge frames,

    integral over Delta of l^d  =  d!/(n+d)! * sum over maximal cones sigma of
        sign(sigma) * l(A_sigma)^(n+d) / prod_j l(w_sigma_j)

where A_sigma is the cone's vertex and w_sigma_j its dual edge vectors.  The
normalization is calibrated so the convex toric case reproduces classical
volumes (interval and triangle oracles in the tests).  General polynomials
are decomposed monomial-by-monomial into powers of linear forms.

There is one vertex sum.  Every direction is read as l + t*zeta with zeta
generic, and the result is the constant Laurent coefficient at t = 0; a cone
whose m dual edge vectors have l(w) = 0 contributes a pole of order m, and
the poles must cancel over the cones.  A direction generic on the cone is
the case m = 0, which is the formula above.  The h-independent part of the
sum is planned once per (pair, direction) and cached.  One monomial
integral serves numeric h (a Fraction) and symbolic h (a MultiPoly in
h_1..h_s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

from .basealg import Element, chern_power_symbolic, f_gamma
from .charpair import CharacteristicPair, cone_sign, dual_edge_frame
from .errors import (DegenerateDirectionError, DegreeMismatchError,
                     MalformedInputError)
from .exact import as_scalar, dot
from .poly import MultiPoly, binomial, power_of_linear_forms
from .srbundle import BundleRing, intersection_number, rho


@dataclass(frozen=True)
class MultiPolytope:
    cp: CharacteristicPair
    h: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.h) != self.cp.s:
            raise MalformedInputError("support vector length must equal the ray count")


def multipolytope(cp: CharacteristicPair, h: Sequence) -> MultiPolytope:
    return MultiPolytope(cp, tuple(as_scalar(v) for v in h))


@dataclass(frozen=True)
class IntegralPolynomial:
    """Integral of a fixed integrand as a polynomial in the support numbers."""

    cp: CharacteristicPair
    degree: int  # homogeneous degree n + d
    poly: MultiPoly  # in h_1..h_s

    def evaluate(self, h: Sequence) -> Fraction:
        return self.poly.evaluate([as_scalar(v) for v in h])


# ---------------------------------------------------------------------------
# Cone data for the vertex expansion.

@lru_cache(maxsize=None)
def _cone_data(cp: CharacteristicPair):
    """Per maximal cone: (rays, sign, dual edge vectors)."""
    return tuple((cone, cone_sign(cp, cone).value, dual_edge_frame(cp, cone))
                 for cone in cp.max_cones)


def _all_dual_vectors(cp: CharacteristicPair):
    for _, _, frame in _cone_data(cp):
        yield from frame


def generic_direction(cp: CharacteristicPair, avoid: Sequence[Sequence] = ()) -> tuple[Fraction, ...]:
    """Deterministic direction nonvanishing on every dual edge vector.

    Walks the moment curve (1, c, c^2, ...) for c = 1, 2, ...; each dual edge
    vector rules out finitely many c, so the walk terminates.
    """
    return _generic_direction(cp, tuple(tuple(v) for v in avoid))


@lru_cache(maxsize=None)
def _generic_direction(cp: CharacteristicPair,
                       avoid: tuple[tuple, ...]) -> tuple[Fraction, ...]:
    vectors = [tuple(v) for v in _all_dual_vectors(cp)] + list(avoid)
    c = 1
    while True:
        ell = tuple(Fraction(c ** k) for k in range(cp.n))
        if all(dot(ell, w) != 0 for w in vectors):
            return ell
        c += 1


# ---------------------------------------------------------------------------
# The vertex expansion engine.  Values are Fractions (numeric h) or
# MultiPoly in h (symbolic); the code is generic over both.

def _series_inverse(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """Power series inverse of sum coeffs[k] t^k (coeffs[0] != 0), to t^order."""
    inv = [Fraction(1) / coeffs[0]]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, min(k, len(coeffs) - 1) + 1):
            acc += coeffs[j] * inv[k - j]
        inv.append(-acc / coeffs[0])
    return inv


@lru_cache(maxsize=None)
def _vertex_plan(cp: CharacteristicPair, ell: tuple[Fraction, ...], perturb: bool):
    """Everything in the vertex sum for direction l that does not depend on h.

    The direction is read as l + t*zeta.  Per maximal cone the plan is
    (rays, l(w), zeta(w), m, c): the m rays with l(w) = 0 give t^m * lead,
    the others Q(t) = prod (l(w) + t zeta(w)) with Q(0) != 0, and c[k] is
    sign / lead times the t^k coefficient of 1/Q, for k <= m.  A generic
    cone has m = 0 and c = (sign / prod l(w),).  A vanishing l(w) raises
    DegenerateDirectionError unless perturb is set; a raise is never cached,
    so every call raises.
    """
    data = _cone_data(cp)
    lws = [tuple(dot(ell, w) for w in frame) for _, _, frame in data]
    if not perturb and any(0 in lw for lw in lws):
        raise DegenerateDirectionError("direction vanishes on a dual edge vector")
    zeta = generic_direction(cp)
    plan = []
    for (cone, sign, frame), lw in zip(data, lws):
        zw = tuple(dot(zeta, w) for w in frame)
        factor, q = Fraction(sign), [Fraction(1)]  # factor = sign / lead
        for a, b in zip(lw, zw):
            if a == 0:
                factor /= b
            else:
                q = _poly_mul_scalar(q, [a, b])
        m = lw.count(0)
        plan.append((cone, lw, zw, m, tuple(factor * v for v in _series_inverse(q, m))))
    return tuple(plan)


def _vertex_sum(cp: CharacteristicPair, ell: Sequence[Fraction], d: int,
                hvals: Sequence[Fraction] | None, perturb: bool):
    """sum over cones of sign * l(A)^(n+d) / prod l(w), exactly.

    hvals numeric -> Fraction result; hvals None -> MultiPoly in h_1..h_s.
    With perturb=False a vanishing l(w) raises DegenerateDirectionError;
    otherwise the direction is perturbed to l + t*zeta and the constant
    Laurent coefficient at t = 0 is returned; the pole terms must cancel.
    Only l(A) = sum h_i l(w_i), zeta(A) = sum h_i zeta(w_i) (for m > 0) and
    their powers depend on h; the rest comes from the cached plan.
    """
    power = cp.n + d
    if hvals is None:
        hvals = [MultiPoly.variable(cp.s, i) for i in range(cp.s)]
        zero = MultiPoly.zero(cp.s)
    else:
        zero = Fraction(0)
    laurent: dict[int, object] = {}  # pole order j -> coefficient of t^-j
    for cone, lw, zw, m, c in _vertex_plan(cp, tuple(ell), perturb):
        la0 = zero
        for i, a in zip(cone, lw):
            la0 = la0 + hvals[i] * a
        if m == 0:
            num = [la0 ** power]
        else:
            la1 = zero
            for i, b in zip(cone, zw):
                la1 = la1 + hvals[i] * b
            # numerator (la0 + t la1)^power: coefficients of t^0..t^m suffice
            num = [(la0 ** (power - j)) * (la1 ** j) * binomial(power, j)
                   for j in range(min(power, m) + 1)]
        for k in range(m + 1):
            # coefficient of t^(k-m) in the cone's Laurent expansion
            acc = num[0] * c[k]
            for j in range(1, min(k, len(num) - 1) + 1):
                acc = acc + num[j] * c[k - j]
            laurent[m - k] = laurent.get(m - k, zero) + acc
    if any(val != zero for j, val in laurent.items() if j > 0):
        raise MalformedInputError("perturbation failed to cancel pole terms")
    return laurent.get(0, zero)


def _poly_mul_scalar(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _monomial_integral(cp: CharacteristicPair, alpha: Sequence[int],
                       hvals: Sequence[Fraction] | None, direction: Sequence | None = None):
    """Integral of x^alpha: a Fraction for numeric hvals, a MultiPoly in
    h_1..h_s when hvals is None.

    A monomial of degree d > 0 is a sum of d-th powers of linear forms; the
    constant is integrated along `direction` (default: a generic one).
    """
    d = sum(alpha)
    scale = Fraction(factorial(d), factorial(cp.n + d))
    if d == 0:
        ell = generic_direction(cp) if direction is None \
            else tuple(as_scalar(v) for v in direction)
        return _vertex_sum(cp, ell, 0, hvals, perturb=True) * scale
    total = sum(_vertex_sum(cp, form, d, hvals, perturb=True) * c
                for c, form in power_of_linear_forms(alpha))
    return total * scale


# ---------------------------------------------------------------------------
# Public integration operations.

def integrate_linear_power(delta: MultiPolytope, ell: Sequence, d: int) -> Fraction:
    """Exact integral of l^d over the multi-polytope; l must be generic."""
    if d < 0:
        raise MalformedInputError("power must be non-negative")
    cp = delta.cp
    lvec = tuple(as_scalar(v) for v in ell)
    if len(lvec) != cp.n:
        raise MalformedInputError("linear form has wrong dimension")
    raw = _vertex_sum(cp, lvec, d, delta.h, perturb=False)
    return raw * Fraction(factorial(d), factorial(cp.n + d))


def integrate_monomial_symbolic(cp: CharacteristicPair, alpha: Sequence[int]) -> MultiPoly:
    """Integral of x^alpha as a polynomial in the support numbers h."""
    return _monomial_integral(cp, tuple(int(a) for a in alpha), None)


def integral_polynomial_symbolic(cp: CharacteristicPair, f: MultiPoly,
                                 direction: Sequence | None = None) -> IntegralPolynomial:
    """The integral of a homogeneous polynomial f as a polynomial in h.

    `direction` optionally overrides the generic direction used for the
    constant term (exposed to test that the result is direction-independent).
    """
    if f.nvars != cp.n:
        raise MalformedInputError("integrand must live on the character space")
    if not f.is_homogeneous():
        raise DegreeMismatchError("integrand must be homogeneous")
    total = MultiPoly.zero(cp.s)
    for alpha, coeff in f.items():
        total = total + _monomial_integral(cp, alpha, None, direction) * coeff
    return IntegralPolynomial(cp=cp, degree=cp.n + f.total_degree(), poly=total)


def integrate_polynomial(delta: MultiPolytope, f: MultiPoly) -> Fraction:
    """Exact integral of a polynomial over a multi-polytope."""
    if f.nvars != delta.cp.n:
        raise MalformedInputError("integrand must live on the character space")
    return sum((_monomial_integral(delta.cp, alpha, delta.h) * coeff
                for alpha, coeff in f.items()), Fraction(0))


def volume(delta: MultiPolytope) -> Fraction:
    """Signed volume: the integral of 1."""
    return integrate_polynomial(delta, MultiPoly.constant(delta.cp.n, 1))


# ---------------------------------------------------------------------------
# The two intersection pipelines and their comparison.

def I_gamma(ring: BundleRing, gamma: Element, i: int, delta: MultiPolytope) -> Fraction:
    """Integral pipeline: integral over Delta of <c(x)^i gamma, [B]>."""
    f = f_gamma(ring.base, ring.chern, gamma, i)
    return integrate_polynomial(delta, f)


def F_gamma(ring: BundleRing, gamma: Element, i: int, delta: MultiPolytope) -> Fraction:
    """Topological pipeline: top product of n+i copies of rho(Delta) with gamma."""
    dg = ring.base.degree_of(gamma)
    if dg is not None and dg != ring.base.top - 2 * i:
        raise DegreeMismatchError(
            f"gamma has degree {dg}, expected {ring.base.top - 2 * i}")
    return intersection_number(ring, [rho(ring, delta.h)] * (ring.cp.n + i), gamma)


@dataclass(frozen=True)
class BkkResult:
    lhs: Fraction  # (n+i)! * I_gamma
    rhs: Fraction  # i! * F_gamma
    equal: bool


def bkk_check(ring: BundleRing, gamma: Element, i: int, delta: MultiPolytope) -> BkkResult:
    """Both sides of (n+i)! * integral = i! * intersection, compared exactly."""
    if i < 0 or 2 * i > ring.base.top:
        raise DegreeMismatchError(f"need 0 <= 2*{i} <= {ring.base.top}")
    n = ring.cp.n
    lhs = factorial(n + i) * I_gamma(ring, gamma, i, delta)
    rhs = factorial(i) * F_gamma(ring, gamma, i, delta)
    return BkkResult(lhs=lhs, rhs=rhs, equal=lhs == rhs)


def horizontal_part(ring: BundleRing, delta: MultiPolytope, i: int) -> Element:
    """The base class representing n+i-fold products of rho(Delta):
    (n+i)!/i! times the componentwise integral of c(x)^i over Delta."""
    if i < 0 or 2 * i > ring.base.top:
        raise DegreeMismatchError(f"need 0 <= 2*{i} <= {ring.base.top}")
    power = chern_power_symbolic(ring.base, ring.chern, i)
    scale = Fraction(factorial(ring.cp.n + i), factorial(i))
    out: Element = {}
    for idx, poly in power.items():
        val = integrate_polynomial(delta, poly) * scale
        if val:
            out[idx] = val
    return out
