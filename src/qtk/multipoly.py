"""Multi-polytopes and exact integration of polynomials over them.

A multi-polytope over a characteristic pair is just its support vector h,
one rational per ray (`charpair.support_vector`); no convexity is assumed.
Integrals are computed by the signed vertex expansion: for a linear form l
generic on the dual edge frames,

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
(h = H / D with integer H).  The cones with m = 0 are laid out flat as
(rays, l(w), c) and summed in one loop; only the others take the Laurent
path.  One plan serves numeric h (a Fraction) and
symbolic h (a MultiPoly in h_1..h_s), and both run in ints: the vertex sum
needs only the t-expansion of (l + t zeta)(A)^(n+d), which is an int power
for numeric h and, for symbolic h, the multinomial theorem over the cone's
rays, an int-coefficient MultiPoly.  The Laurent bookkeeping that combines
it with the plan, the pole check included, is the same for both, and each
path divides by the common denominator once at the end.

The BKK comparison caches one sampler per (ring, gamma, i): the
integration plan of f_gamma, and a table with one int weight
k!/alpha! * <gamma x^alpha, [M]> per face monomial x^alpha of degree
k = n + i, cleared from srbundle's `pairing_polynomial`, the same
polynomial the direct potential reads.  I_gamma, F_gamma, bkk_sides and
bkk_check all read it.  bkk_sides returns both sides of one sample, for
the caller to compare.  bkk_check takes a whole stream of samples and
returns only the failing ones; each sample runs in ints only: h is checked
as support_vector checks it and cleared to H / D in place, the sampler of
each distinct (gamma, i) is read once per call, the vertex sums are the
one numeric vertex sum that integrate_polynomial runs, and the sides are
compared as int cross products, with Fractions built only for a failure.
Both read one int core, so there is one formula.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import comb, factorial, gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .basealg import Element, chern_power_symbolic, f_gamma
from .charpair import CharacteristicPair, cone_sign, dual_edge_frame, support_vector
from .errors import DegreeMismatchError, MalformedInputError
from .exact import as_scalar, cleared_dense, dot, int_if_integral
from .poly import MultiPoly, power_of_linear_forms, weighted_monomials
from .srbundle import BundleRing, pairing_polynomial


# ---------------------------------------------------------------------------
# Cone data for the vertex expansion.

@lru_cache(maxsize=None)
def _cone_data(cp: CharacteristicPair):
    """Per maximal cone: (rays, sign, dual edge vectors), the vectors' entries
    ints where integral (always, on a unimodular cone)."""
    return tuple((cone, cone_sign(cp, cone),
                  tuple(tuple(map(int_if_integral, w)) for w in dual_edge_frame(cp, cone)))
                 for cone in cp.max_cones)


def _all_dual_vectors(cp: CharacteristicPair):
    for _, _, frame in _cone_data(cp):
        yield from frame


@lru_cache(maxsize=None)
def generic_direction(cp: CharacteristicPair) -> tuple[int, ...]:
    """Deterministic direction nonvanishing on every dual edge vector.

    Walks the moment curve (1, c, c^2, ...) for c = 1, 2, ...; each dual edge
    vector rules out finitely many c, so the walk terminates.
    """
    vectors = list(_all_dual_vectors(cp))
    c = 1
    while True:
        ell = tuple(c ** k for k in range(cp.n))
        if all(dot(ell, w) != 0 for w in vectors):
            return ell
        c += 1


# ---------------------------------------------------------------------------
# The vertex expansion engine.  Values are ints (numeric h = H / D) or
# int-coefficient MultiPolys in h (symbolic); the bookkeeping is generic
# over both.

@lru_cache(maxsize=None)
def _vertex_plan(cp: CharacteristicPair, ell: tuple[Fraction, ...]):
    """Everything in the vertex sum for direction l that does not depend on h.

    The direction is read as l + t*zeta, with zeta the generic direction.
    Per maximal cone the plan is (rays, l(w), zeta(w), m, c, den): the m
    rays with l(w) = 0 give t^m * lead, the others Q(t) = prod (l(w) +
    t zeta(w)) with Q(0) != 0, and c[k] / den is sign / lead times the t^k
    coefficient of 1/Q, for k <= m.  A cone on which l is generic has m = 0
    and c / den = (sign / prod l(w),).

    It runs in ints, since l, zeta and the dual edge vectors are integral
    (a rational l only clears its denominators at the end): with Q = q_0 +
    q_1 t + ..., the t^k coefficient of 1/Q is P_k / q_0^(k+1), where P_0 =
    1 and P_k = -sum_{j=1..k} q_j q_0^(j-1) P_(k-j), so c[k] = sign * P_k *
    q_0^(m-k) and den = lead * q_0^(m+1), both negated when den < 0.
    """
    zeta = generic_direction(cp)
    ell = tuple(map(int_if_integral, ell))
    plan = []
    for cone, sign, frame in _cone_data(cp):
        lw = tuple(dot(ell, w) for w in frame)
        zw = tuple(dot(zeta, w) for w in frame)
        lead, q = 1, [1]
        for a, b in zip(lw, zw):
            if a == 0:
                lead *= b
            else:
                q = [x * a + y * b for x, y in zip(q + [0], [0] + q)]
        m = lw.count(0)
        p = [1]
        for k in range(1, m + 1):
            p.append(-sum(q[j] * q[0] ** (j - 1) * p[k - j]
                          for j in range(1, min(k, len(q) - 1) + 1)))
        c = [sign * v * q[0] ** (m - k) for k, v in enumerate(p)]
        den = lead * q[0] ** (m + 1)
        scale = lcm(den.denominator, *(v.denominator for v in c))  # 1 in ints
        if den < 0:
            scale = -scale
        plan.append((cone, lw, zw, m, tuple(int(v * scale) for v in c), int(den * scale)))
    return tuple(plan)


def _scaled_plans(cp: CharacteristicPair, weighted):
    """The vertex plans of weighted = ((l, d, weight), ...), ready for ints.

    Returns (den, ((n + d, flat, poles), ...)): each cone's c / den is
    multiplied by its form's weight and brought to den, the least common
    denominator of all of them, so c is an int.  The cones on which l is
    generic (m = 0) are laid out flat as (rays, l(w), c[0]); the others keep
    (rays, l(w), zeta(w), m, c) for the Laurent bookkeeping.  The weighted
    integral is then the sum of the cones' numerators over den.
    """
    scaled = []
    for ell, d, weight in weighted:
        cones = []
        for cone, lw, zw, m, c, cden in _vertex_plan(cp, ell):
            c = [weight.numerator * v for v in c]
            cden *= weight.denominator
            g = gcd(cden, *c)
            cones.append((cone, lw, zw, m, [v // g for v in c], cden // g))
        scaled.append((cp.n + d, cones))
    den = lcm(*(cden for _, cones in scaled for *_, cden in cones))
    return den, tuple(
        (power,
         tuple((cone, lw, c[0] * (den // cden))
               for cone, lw, _, m, c, cden in cones if m == 0),
         tuple((cone, lw, zw, m, tuple(v * (den // cden) for v in c))
               for cone, lw, zw, m, c, cden in cones if m))
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


def _numeric_flat(big_h: list[int], flat, power: int) -> int:
    """sum c * l(A)^power over the flat cones at h = big_h / D, times
    D^power: l(A) = sum H_i l(w_i) over each cone's rays, in ints."""
    get = big_h.__getitem__
    return sum(c * sum(map(mul, map(get, rays), lw)) ** power for rays, lw, c in flat)


def _numeric_power(big_h: list[int], cone, lw, zw, m: int, power: int):
    """The t^j coefficients, j <= min(power, m), of (l + t zeta)(A)^power at
    h = big_h / D, times D^power, on a cone with m > 0, in ints."""
    hs = [big_h[i] for i in cone]
    la0 = sum(map(mul, hs, lw))
    la1 = sum(map(mul, hs, zw))
    return [la0 ** (power - j) * la1 ** j * comb(power, j)
            for j in range(min(power, m) + 1)]


@lru_cache(maxsize=None)
def _multinomials(rays: tuple[int, ...], s: int, power: int):
    """Per exponent vector a on the rays with |a| = power: the exponent of
    h_1..h_s it gives, a itself and power!/a!."""
    terms = []
    for a in weighted_monomials((1,) * len(rays), power):
        key = [0] * s
        for i, e in zip(rays, a):
            key[i] = e
        terms.append((tuple(key), a, factorial(power) // prod(map(factorial, a))))
    return tuple(terms)


def _linear_power(rays: tuple[int, ...], coeffs, s: int, power: int) -> MultiPoly:
    """(sum_k coeffs[k] h_rays[k])^power by the multinomial theorem: the
    coefficient of h^a is power!/a! * prod_k coeffs[k]^a_k, nonzero since
    every coeffs[k] is."""
    pows = [[x ** e for e in range(power + 1)] for x in coeffs]
    return MultiPoly._trusted(s, {key: coeff * prod(map(list.__getitem__, pows, a))
                                  for key, a, coeff in _multinomials(rays, s, power)})


def _symbolic_flat(s: int, flat, power: int):
    """sum c * l(A)^power over the flat cones for symbolic h, each power
    expanded by the multinomial theorem over the cone's rays."""
    return sum((_linear_power(rays, lw, s, power) * c for rays, lw, c in flat), 0)


def _symbolic_power(s: int, cone, lw, zw, m: int, power: int):
    """The t^j coefficients, j <= min(power, m), of (l + t zeta)(A)^power
    for symbolic h on a cone with m > 0, as MultiPolys in h_1..h_s:
    C(power, j) l(A)^(power-j) zeta(A)^j, each power of a linear form in h
    expanded by the multinomial theorem.  l(A) = sum h_i l(w_i) runs over
    the n - m rays with l(w) != 0."""
    rays = tuple(i for i, a in zip(cone, lw) if a)
    coeffs = [a for a in lw if a]
    return [_linear_power(rays, coeffs, s, power - j) * _linear_power(cone, zw, s, j)
            * comb(power, j) for j in range(min(power, m) + 1)]


def _vertex_sum(cones, power: int, expand):
    """Numerator of the cones with m > 0 in one form's vertex sum, exactly.

    Per cone it is the constant Laurent coefficient at t = 0 of
    sign * (l + t zeta)(A)^power / prod (l + t zeta)(w), times the plan's
    den.  expand(cone, l(w), zeta(w), m, power) gives the numerator's t^j
    coefficients for j <= min(power, m) (_numeric_power, _symbolic_power).
    The pole terms must cancel.
    """
    const = 0
    poles: dict[int, int | MultiPoly] = {}  # pole order j -> coefficient of t^-j
    for cone, lw, zw, m, c in cones:
        num = expand(cone, lw, zw, m, power)
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


def _plan_sum(plan, flat_sum, expand, scale: int):
    """A scaled plan's integral at h = H / scale, as (numerator, denominator),
    with flat_sum(flat, power) summing the flat cones at H (_numeric_flat,
    _symbolic_flat) and expand reading H on the others (see _vertex_sum).

    Each form's vertex sum is homogeneous of degree n + d in H, so it is
    brought to the largest such degree, top, by scale^(top - power); the
    denominator is den * scale^top.
    """
    den, forms = plan
    top = max((power for power, _, _ in forms), default=0)
    total = 0
    for power, flat, poles in forms:
        part = flat_sum(flat, power)
        if poles:
            part = part + _vertex_sum(poles, power, expand)
        total = total + (part if power == top else part * scale ** (top - power))
    return total, den * scale ** top


def _numeric_sum(plan, big_h: list[int], scale: int):
    """A scaled plan's integral at h = big_h / scale, as (numerator,
    denominator) in ints."""
    return _plan_sum(plan, partial(_numeric_flat, big_h),
                     partial(_numeric_power, big_h), scale)


def _evaluate(cp: CharacteristicPair, plan, h: Sequence[Fraction] | None):
    """A scaled plan's integral: a Fraction for numeric h, a MultiPoly in
    h_1..h_s when h is None.

    Numeric h is written once as H / D with integer H, so every vertex sum
    runs in ints and one division by den * D^top ends it; symbolic h has
    int coefficients over den, divided once at the end.
    """
    if h is None:
        total, den = _plan_sum(plan, partial(_symbolic_flat, cp.s),
                               partial(_symbolic_power, cp.s), 1)
        terms = total.terms if total else {}  # total is the int 0 without forms
        return MultiPoly._trusted(cp.s, {e: Fraction(v, den) for e, v in terms.items()})
    big_h, scale = cleared_dense(h)
    return Fraction(*_numeric_sum(plan, big_h, scale))


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


def integrate_polynomial(cp: CharacteristicPair, h: Sequence, f: MultiPoly) -> Fraction:
    """Exact integral of a polynomial over the multi-polytope Delta(h)."""
    h = support_vector(cp, h)
    if f.nvars != cp.n:
        raise MalformedInputError("integrand must live on the character space")
    return _evaluate(cp, _integration_plan(cp, f, None), h)


def volume(cp: CharacteristicPair, h: Sequence) -> Fraction:
    """Signed volume of Delta(h): the integral of 1."""
    return integrate_polynomial(cp, h, MultiPoly.constant(cp.n, 1))


# ---------------------------------------------------------------------------
# The two intersection pipelines and their comparison.

@lru_cache(maxsize=None)
def _bkk_sampler(ring: BundleRing, gamma: tuple[tuple[int, Fraction], ...], i: int):
    """Everything in a BKK sample of (gamma, i) that does not depend on h.

    Returns (plan, table, wden).  plan integrates f_gamma.  table has one
    entry per term c h^alpha of the pairing polynomial of gamma in degree
    k = n + i: its (j, alpha_j) with alpha_j > 0, and the int weight
    wden * k! * c, wden clearing every weight's denominator.  The pairing
    polynomial is <gamma * rho(h)^k, [M]> / k!, so at h = H / D the
    intersection side is sum weight * H^alpha / (wden * D^k).
    """
    f = f_gamma(ring.base, ring.chern, dict(gamma), i)
    k = ring.cp.n + i
    weights = [(tuple((j, e) for j, e in enumerate(alpha) if e), factorial(k) * c)
               for alpha, c in pairing_polynomial(ring, dict(gamma), k).terms.items()]
    wden = lcm(*(w.denominator for _, w in weights))
    table = tuple((factors, int(w * wden)) for factors, w in weights)
    return _integration_plan(ring.cp, f, None), table, wden


def _sampler(ring: BundleRing, gamma: Element, i: int):
    """The cached sampler of (gamma, i); zero coefficients of gamma are dropped.

    A bad (gamma, i) is never cached, so f_gamma checks it on every call.
    """
    return _bkk_sampler(ring, tuple(sorted((idx, c) for idx, c in gamma.items() if c)), i)


def _table_sum(table, big_h: list[int]) -> int:
    """sum weight * H^alpha over the sampler's table, in ints."""
    total = 0
    for factors, weight in table:
        for j, e in factors:
            weight *= big_h[j] ** e
        total += weight
    return total


def I_gamma(ring: BundleRing, gamma: Element, i: int, h: Sequence) -> Fraction:
    """Integral pipeline: integral over Delta(h) of <c(x)^i gamma, [B]>."""
    h = support_vector(ring.cp, h)
    plan, _, _ = _sampler(ring, gamma, i)
    return _evaluate(ring.cp, plan, h)


def F_gamma(ring: BundleRing, gamma: Element, i: int, h: Sequence) -> Fraction:
    """Topological pipeline: <rho(h)^(n+i) gamma, [M]>.

    With h = H / D for integer H, the sampler's table of weighted face
    monomials is summed at H in ints; one division by wden * D^(n+i) ends it.
    """
    h = support_vector(ring.cp, h)
    _, table, wden = _sampler(ring, gamma, i)
    big_h, den = cleared_dense(h)
    return Fraction(_table_sum(table, big_h), wden * den ** (ring.cp.n + i))


def _bkk_ints(sampler, i: int, k: int, big_h: list[int], den: int):
    """Both sides of the BKK identity at h = big_h / den, (n+i)! * I_gamma
    and i! * F_gamma with k = n + i, as (lnum, lden, rnum, rden) with lhs =
    lnum / lden and rhs = rnum / rden, both denominators positive.  Both
    sides read the one sampler."""
    plan, table, wden = sampler
    lnum, lden = _numeric_sum(plan, big_h, den)
    return (factorial(k) * lnum, lden,
            factorial(i) * _table_sum(table, big_h), wden * den ** k)


def bkk_sides(ring: BundleRing, gamma: Element, i: int,
              h: Sequence) -> tuple[Fraction, Fraction]:
    """Both sides of the BKK identity, (n+i)! * I_gamma and i! * F_gamma,
    for the caller to compare."""
    h = support_vector(ring.cp, h)
    big_h, den = cleared_dense(h)
    lnum, lden, rnum, rden = _bkk_ints(_sampler(ring, gamma, i), i,
                                       ring.cp.n + i, big_h, den)
    return Fraction(lnum, lden), Fraction(rnum, rden)


def bkk_check(ring: BundleRing, samples: Iterable[tuple[Element, int, Sequence]]):
    """The samples (gamma, i, h) at which the BKK identity fails, as
    (gamma, i, h, lhs, rhs) in sample order, lhs and rhs as in bkk_sides.

    Each sample runs in ints.  Its h is checked as support_vector checks
    it and cleared to H / D in place; the sampler of a written (gamma, i)
    is read through _sampler where it first appears, after h's checks, as
    in bkk_sides.  The sides are compared as lnum * rden == rnum * lden, and
    Fractions are built only for a failure's report.  An error raises at the
    sample that causes it, as bkk_sides would.
    """
    n, s = ring.cp.n, ring.cp.s
    samplers = {}
    failures = []
    for gamma, i, h in samples:
        hs = [v if type(v) is Fraction or type(v) is int else as_scalar(v) for v in h]
        if len(hs) != s:
            support_vector(ring.cp, hs)  # raises its length error
        # Keyed by i and gamma's indices, which hash as ints; gamma's values
        # are compared, not hashed, and a repeated value object compares by
        # identity.
        key, values = (i, *gamma), (*gamma.values(),)
        seen = samplers.get(key)
        if seen is None or seen[0] != values:
            seen = samplers[key] = values, _sampler(ring, gamma, i)
        sampler = seen[1]
        den = lcm(*[v.denominator for v in hs])
        big_h = [v.numerator * (den // v.denominator) for v in hs]
        lnum, lden, rnum, rden = _bkk_ints(sampler, i, n + i, big_h, den)
        if lnum * rden != rnum * lden:
            failures.append((gamma, i, h, Fraction(lnum, lden), Fraction(rnum, rden)))
    return failures


def horizontal_part(ring: BundleRing, h: Sequence, i: int) -> Element:
    """The base class representing n+i-fold products of rho(h):
    (n+i)!/i! times the componentwise integral of c(x)^i over Delta(h)."""
    h = support_vector(ring.cp, h)
    if i < 0 or 2 * i > ring.base.top:
        raise DegreeMismatchError(f"need 0 <= 2*{i} <= {ring.base.top}")
    scale = Fraction(factorial(ring.cp.n + i), factorial(i))
    out: Element = {}
    for idx, poly in chern_power_symbolic(ring.base, ring.chern, i):
        val = integrate_polynomial(ring.cp, h, poly) * scale
        if val:
            out[idx] = val
    return out
