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
the case m = 0, which is the formula above.

Everything that does not depend on h is planned once and cached: per (pair,
direction) the cone data of the vertex sum, and per (pair, integrand) the
distinct (form, degree) pairs of its decomposition with merged
coefficients, over one common denominator so that a sample runs in ints
(h = H / D with integer H).  One plan serves numeric h (a Fraction) and
symbolic h (a MultiPoly in h_1..h_s).  The BKK comparison caches its
integrand f_gamma per (gamma, i); the intersection side lives in srbundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Sequence

from .basealg import Element, chern_power_symbolic, f_gamma
from .charpair import CharacteristicPair, cone_sign, dual_edge_frame
from .errors import DegreeMismatchError, MalformedInputError
from .exact import as_scalar, cleared_dense, dot, int_if_integral
from .poly import MultiPoly, power_of_linear_forms
from .srbundle import BundleRing, evaluate_top, rho_power


@dataclass(frozen=True)
class MultiPolytope:
    cp: CharacteristicPair
    h: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.h) != self.cp.s:
            raise MalformedInputError("support vector length must equal the ray count")


def multipolytope(cp: CharacteristicPair, h: Sequence) -> MultiPolytope:
    return MultiPolytope(cp, tuple(as_scalar(v) for v in h))


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


@lru_cache(maxsize=None)
def generic_direction(cp: CharacteristicPair) -> tuple[Fraction, ...]:
    """Deterministic direction nonvanishing on every dual edge vector.

    Walks the moment curve (1, c, c^2, ...) for c = 1, 2, ...; each dual edge
    vector rules out finitely many c, so the walk terminates.
    """
    vectors = list(_all_dual_vectors(cp))
    c = 1
    while True:
        ell = tuple(Fraction(c ** k) for k in range(cp.n))
        if all(dot(ell, w) != 0 for w in vectors):
            return ell
        c += 1


# ---------------------------------------------------------------------------
# The vertex expansion engine.  Values are ints (numeric h = H / D) or
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
def _vertex_plan(cp: CharacteristicPair, ell: tuple[Fraction, ...]):
    """Everything in the vertex sum for direction l that does not depend on h.

    The direction is read as l + t*zeta, with zeta the generic direction.
    Per maximal cone the plan is (rays, l(w), zeta(w), m, c): the m rays
    with l(w) = 0 give t^m * lead, the others Q(t) = prod (l(w) + t zeta(w))
    with Q(0) != 0, and c[k] is sign / lead times the t^k coefficient of
    1/Q, for k <= m.  A cone on which l is generic has m = 0 and
    c = (sign / prod l(w),).
    """
    zeta = generic_direction(cp)
    plan = []
    for cone, sign, frame in _cone_data(cp):
        lw = tuple(dot(ell, w) for w in frame)
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


def _poly_mul_scalar(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _scaled_plans(cp: CharacteristicPair, weighted):
    """The vertex plans of weighted = ((l, d, weight), ...), ready for ints.

    Returns (den, ((n + d, cones), ...)): each cone's c is multiplied by its
    form's weight and by den, the one common denominator of all of them, so
    it is an int; l(w) and zeta(w) are ints where integral.  The weighted
    integral is then the sum of the cones' numerators over den.
    """
    scaled = [(cp.n + d, [(cone, lw, zw, m, [weight * v for v in c])
                          for cone, lw, zw, m, c in _vertex_plan(cp, ell)])
              for ell, d, weight in weighted]
    den = lcm(*(v.denominator for _, cones in scaled
                for *_, c in cones for v in c))
    return den, tuple(
        (power, tuple((cone, tuple(map(int_if_integral, lw)),
                       tuple(map(int_if_integral, zw)), m,
                       tuple(int(v * den) for v in c))
                      for cone, lw, zw, m, c in cones))
        for power, cones in scaled)


@lru_cache(maxsize=None)
def _integration_plan(cp: CharacteristicPair, f: MultiPoly,
                      direction: tuple[Fraction, ...] | None):
    """Everything in the integral of f that does not depend on h.

    Each monomial of degree d > 0 is a sum of d-th powers of linear forms
    (power_of_linear_forms); the constant is integrated along `direction`
    (default: the generic one).  Coefficients of equal (form, d) are merged,
    d!/(n+d)! included, so each distinct form costs one vertex sum.
    """
    merged: dict[tuple[tuple[Fraction, ...], int], Fraction] = {}
    for alpha, coeff in f.items():
        d = sum(alpha)
        scale = coeff * Fraction(factorial(d), factorial(cp.n + d))
        if d == 0:
            ell = generic_direction(cp) if direction is None else direction
            terms = [(Fraction(1), ell)]
        else:
            terms = power_of_linear_forms(alpha)
        for c, form in terms:
            merged[form, d] = merged.get((form, d), Fraction(0)) + c * scale
    return _scaled_plans(cp, [(ell, d, w) for (ell, d), w in merged.items() if w])


def _vertex_sum(cones, power: int, hvals):
    """Numerator of one form's vertex sum at h = hvals / D, exactly.

    Per cone it is the constant Laurent coefficient at t = 0 of
    sign * (l + t zeta)(A)^power / prod (l + t zeta)(w), times the plan's
    den and D^power: l(A) = sum hvals_i l(w_i) over the cone's rays (and
    zeta(A) on cones with m > 0).  hvals are ints for numeric h and the
    variables h_1..h_s (D = 1) for symbolic h.  The pole terms must cancel.
    """
    const = 0
    poles: dict[int, object] = {}  # pole order j -> coefficient of t^-j
    for cone, lw, zw, m, c in cones:
        la0 = sum(hvals[i] * a for i, a in zip(cone, lw))
        if m == 0:
            const = const + la0 ** power * c[0]
            continue
        la1 = sum(hvals[i] * b for i, b in zip(cone, zw))
        # numerator (la0 + t la1)^power: coefficients of t^0..t^m suffice
        num = [(la0 ** (power - j)) * (la1 ** j) * comb(power, j)
               for j in range(min(power, m) + 1)]
        for k in range(m + 1):
            # coefficient of t^(k-m) in the cone's Laurent expansion
            acc = num[0] * c[k]
            for j in range(1, min(k, len(num) - 1) + 1):
                acc = acc + num[j] * c[k - j]
            if k == m:
                const = const + acc
            else:
                poles[m - k] = poles.get(m - k, 0) + acc
    if any(poles.values()):
        raise MalformedInputError("pole terms of the vertex sum do not cancel")
    return const


def _evaluate(cp: CharacteristicPair, plan, h: Sequence[Fraction] | None):
    """A scaled plan's integral: a Fraction for numeric h, a MultiPoly in
    h_1..h_s when h is None.

    Numeric h is written once as H / D with integer H, so every vertex sum
    runs in ints and one division by den * D^top ends it.
    """
    den, forms = plan
    if h is None:
        hvals, scale = [MultiPoly.variable(cp.s, i) for i in range(cp.s)], 1
        total = MultiPoly.zero(cp.s)
    else:
        hvals, scale = cleared_dense(h)
        total = 0
    top = max((power for power, _ in forms), default=0)
    for power, cones in forms:
        part = _vertex_sum(cones, power, hvals)
        total = total + (part if power == top else part * scale ** (top - power))
    return total * Fraction(1, den * scale ** top)


# ---------------------------------------------------------------------------
# Public integration operations.

def integrate_monomial_symbolic(cp: CharacteristicPair, alpha: Sequence[int]) -> MultiPoly:
    """Integral of x^alpha as a polynomial in the support numbers h."""
    f = MultiPoly.monomial(tuple(int(a) for a in alpha))
    return _evaluate(cp, _integration_plan(cp, f, None), None)


def integral_polynomial_symbolic(cp: CharacteristicPair, f: MultiPoly,
                                 direction: Sequence | None = None) -> MultiPoly:
    """The integral of a homogeneous polynomial f as a polynomial in h.

    `direction` optionally overrides the generic direction used for the
    constant term (exposed to test that the result is direction-independent).
    """
    if f.nvars != cp.n:
        raise MalformedInputError("integrand must live on the character space")
    if not f.is_homogeneous():
        raise DegreeMismatchError("integrand must be homogeneous")
    if direction is not None:
        direction = tuple(as_scalar(v) for v in direction)
    return _evaluate(cp, _integration_plan(cp, f, direction), None)


def integrate_polynomial(delta: MultiPolytope, f: MultiPoly) -> Fraction:
    """Exact integral of a polynomial over a multi-polytope."""
    if f.nvars != delta.cp.n:
        raise MalformedInputError("integrand must live on the character space")
    return _evaluate(delta.cp, _integration_plan(delta.cp, f, None), delta.h)


def volume(delta: MultiPolytope) -> Fraction:
    """Signed volume: the integral of 1."""
    return integrate_polynomial(delta, MultiPoly.constant(delta.cp.n, 1))


# ---------------------------------------------------------------------------
# The two intersection pipelines and their comparison.

def I_gamma(ring: BundleRing, gamma: Element, i: int, delta: MultiPolytope) -> Fraction:
    """Integral pipeline: integral over Delta of <c(x)^i gamma, [B]>."""
    f = _integrand(ring, tuple(sorted(gamma.items())), i)
    return integrate_polynomial(delta, f)


@lru_cache(maxsize=None)
def _integrand(ring: BundleRing, gamma: tuple[tuple[int, Fraction], ...],
               i: int) -> MultiPoly:
    """f_gamma once per (base, Chern data, gamma, i); every BKK sample with
    the same class and i integrates the same polynomial."""
    return f_gamma(ring.base, ring.chern, dict(gamma), i)


def F_gamma(ring: BundleRing, gamma: Element, i: int, delta: MultiPolytope) -> Fraction:
    """Topological pipeline: <rho(Delta)^(n+i) gamma, [M]>.

    With h = H / D for integer H, gamma * rho(H)^(n+i) is expanded by the
    multinomial theorem over the face monomials (`rho_power`) and paired by
    `evaluate_top` in ints; one division by D^(n+i) ends it.
    """
    dg = ring.base.degree_of(gamma)
    if dg is not None and dg != ring.base.top - 2 * i:
        raise DegreeMismatchError(
            f"gamma has degree {dg}, expected {ring.base.top - 2 * i}")
    k = ring.cp.n + i
    big_h, den = cleared_dense(delta.h)
    return evaluate_top(ring, rho_power(ring, big_h, k, gamma)) / den ** k


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
    scale = Fraction(factorial(ring.cp.n + i), factorial(i))
    out: Element = {}
    for idx, poly in chern_power_symbolic(ring.base, ring.chern, i):
        val = integrate_polynomial(delta, poly) * scale
        if val:
            out[idx] = val
    return out
