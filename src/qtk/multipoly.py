"""Multi-polytopes and exact integration of polynomials over them.

A multi-polytope over a characteristic pair is just a support vector h (one
rational per ray); no convexity is assumed.  Integrals are computed by the
signed vertex expansion: for a linear form l generic on the dual edge frames,

    integral over Delta of l^d  =  d!/(n+d)! * sum over maximal cones sigma of
        sign(sigma) * l(A_sigma)^(n+d) / prod_j l(w_sigma_j)

where A_sigma is the cone's vertex and w_sigma_j its dual edge vectors.  The
normalization is calibrated so the convex toric case reproduces classical
volumes (interval and triangle oracles in the tests).  General polynomials
are decomposed monomial-by-monomial into powers of linear forms; directions
that vanish on some dual edge vector are resolved exactly by a one-parameter
perturbation l + t*zeta and taking the constant Laurent coefficient at t=0.
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
from .poly import MultiPoly, binomial, polarize, power_of_linear_forms
from .srbundle import BundleRing, bel_mul, evaluate_top, lift, rho


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
    poly: MultiPoly  # in h_1..h_s, weights all 2

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

    Returns (perturbed, cones).  Unperturbed, each cone gives
    (rays, l(w) per ray, sign / prod l(w)).  Perturbed to l + t*zeta, each
    cone gives (rays, l(w) per ray, zeta(w) per ray, m, the series inverse of
    Q to t^m, sign / lead): the m rays with l(w) = 0 give t^m * lead, the
    others Q(t) with Q(0) != 0.  A vanishing l(w) raises
    DegenerateDirectionError unless perturb is set; a raise is never cached,
    so every call raises.
    """
    data = _cone_data(cp)
    lws = [tuple(dot(ell, w) for w in frame) for _, _, frame in data]
    degenerate = any(a == 0 for lw in lws for a in lw)
    if degenerate and not perturb:
        raise DegenerateDirectionError("direction vanishes on a dual edge vector")
    cones = []
    if not degenerate:
        for (cone, sign, _), lw in zip(data, lws):
            lw_prod = Fraction(1)
            for a in lw:
                lw_prod *= a
            cones.append((cone, lw, Fraction(sign) / lw_prod))
        return False, tuple(cones)
    zeta = generic_direction(cp)
    for (cone, sign, frame), lw in zip(data, lws):
        zw = tuple(dot(zeta, w) for w in frame)
        lead = Fraction(1)
        qpoly = [Fraction(1)]
        for a, b in zip(lw, zw):
            if a == 0:
                lead *= b
            else:
                qpoly = _poly_mul_scalar(qpoly, [a, b])
        m = sum(1 for a in lw if a == 0)
        inv = tuple(_series_inverse(qpoly, m))
        cones.append((cone, lw, zw, m, inv, Fraction(sign) / lead))
    return True, tuple(cones)


def _vertex_sum(cp: CharacteristicPair, ell: Sequence[Fraction], d: int,
                hvals: Sequence[Fraction] | None, perturb: bool):
    """sum over cones of sign * l(A)^(n+d) / prod l(w), exactly.

    hvals numeric -> Fraction result; hvals None -> MultiPoly in h_1..h_s.
    With perturb=False a vanishing l(w) raises DegenerateDirectionError;
    otherwise the direction is perturbed to l + t*zeta and the constant
    Laurent coefficient at t = 0 is returned.  Only l(A) = sum h_i l(w_i)
    and its power depend on h; the rest comes from the cached plan.
    """
    n, s = cp.n, cp.s
    power = n + d
    symbolic = hvals is None

    def h_coordinate(i):
        if symbolic:
            return MultiPoly.variable(s, i, weights=(2,) * s)
        return hvals[i]

    perturbed, cones = _vertex_plan(cp, tuple(ell), perturb)
    zero = MultiPoly.zero(s, weights=(2,) * s) if symbolic else Fraction(0)

    if not perturbed:
        total = zero
        for cone, lw, factor in cones:
            la = zero
            for idx, a in zip(cone, lw):
                la = la + h_coordinate(idx) * a
            total = total + (la ** power) * factor
        return total

    total_by_exp: dict[int, object] = {}
    for cone, lw, zw, m, inv, factor in cones:
        la0 = zero
        la1 = zero
        for idx, a, b in zip(cone, lw, zw):
            la0 = la0 + h_coordinate(idx) * a
            la1 = la1 + h_coordinate(idx) * b
        # numerator (la0 + t la1)^power: coefficients of t^0..t^m suffice
        num = [(la0 ** (power - k)) * (la1 ** k) * binomial(power, k)
               for k in range(min(power, m) + 1)]
        for k in range(m + 1):
            # coefficient of t^(k-m) in the cone's Laurent expansion
            acc = None
            for j in range(k + 1):
                if j >= len(num):
                    break
                part = num[j] * inv[k - j]
                acc = part if acc is None else acc + part
            if acc is None:
                continue
            term = acc * factor
            expn = k - m
            cur = total_by_exp.get(expn)
            total_by_exp[expn] = term if cur is None else cur + term
    for expn, val in sorted(total_by_exp.items()):
        if expn < 0 and val != zero:
            raise MalformedInputError("perturbation failed to cancel pole terms")
    return total_by_exp.get(0, zero)


def _poly_mul_scalar(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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
    alpha = tuple(int(a) for a in alpha)
    d = sum(alpha)
    s = cp.s
    scale = Fraction(factorial(d), factorial(cp.n + d))
    if d == 0:
        ell = generic_direction(cp)
        return _vertex_sum(cp, ell, 0, None, perturb=True) * scale
    total = MultiPoly.zero(s, weights=(2,) * s)
    for coeff, form in power_of_linear_forms(alpha):
        total = total + _vertex_sum(cp, form, d, None, perturb=True) * coeff
    return total * scale


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
    d = f.total_degree()
    s = cp.s
    total = MultiPoly.zero(s, weights=(2,) * s)
    for alpha, coeff in f.items():
        if sum(alpha) == 0:
            ell = tuple(as_scalar(v) for v in direction) if direction is not None \
                else generic_direction(cp)
            part = _vertex_sum(cp, ell, 0, None, perturb=True) \
                * Fraction(1, factorial(cp.n))
        else:
            part = integrate_monomial_symbolic(cp, alpha)
        total = total + part * coeff
    return IntegralPolynomial(cp=cp, degree=cp.n + d, poly=total)


def integrate_polynomial(delta: MultiPolytope, f: MultiPoly) -> Fraction:
    """Exact integral of a polynomial over a multi-polytope."""
    cp = delta.cp
    if f.nvars != cp.n:
        raise MalformedInputError("integrand must live on the character space")
    total = Fraction(0)
    scale_cache: dict[int, Fraction] = {}
    for alpha, coeff in f.items():
        d = sum(alpha)
        scale = scale_cache.setdefault(d, Fraction(factorial(d), factorial(cp.n + d)))
        if d == 0:
            ell = generic_direction(cp)
            total += coeff * scale * _vertex_sum(cp, ell, 0, delta.h, perturb=True)
            continue
        for c, form in power_of_linear_forms(alpha):
            total += coeff * c * scale * _vertex_sum(cp, form, d, delta.h, perturb=True)
    return total


def volume(delta: MultiPolytope) -> Fraction:
    """Signed volume: the integral of 1."""
    return integrate_polynomial(delta, MultiPoly.constant(delta.cp.n, 1))


def mixed_integral(cp: CharacteristicPair, f: MultiPoly,
                   deltas: Sequence[MultiPolytope]) -> Fraction:
    """Polarization of the integral polynomial, evaluated on the given
    multi-polytopes; symmetric, multilinear, diagonal recovers the integral."""
    sym = integral_polynomial_symbolic(cp, f)
    if len(deltas) != sym.degree:
        raise DegreeMismatchError(
            f"need {sym.degree} multi-polytopes, got {len(deltas)}")
    for dd in deltas:
        if dd.cp is not cp and dd.cp != cp:
            raise MalformedInputError("multi-polytope over a different pair")
    return polarize(sym.poly, [dd.h for dd in deltas])


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
    r = rho(ring, delta.h)
    acc = lift(ring, gamma)
    for _ in range(ring.cp.n + i):
        acc = bel_mul(ring, acc, r)
    if not acc:
        return Fraction(0)
    return evaluate_top(ring, acc)


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
