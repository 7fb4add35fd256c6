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
(rays, l(w), c); the others carry their Laurent coefficients a[k][j] =
C(n+d, j) * c[k-j], so the t^(k-m) coefficient of such a cone is
sum_j a[k][j] l(A)^(n+d-j) zeta(A)^j, a pole for k < m.  One plan serves
numeric h and symbolic h (a MultiPoly in h_1..h_s).  Numeric h runs
through one int core, `_batch`, which evaluates a plan on a batch of
cleared support vectors held as one int column per ray, every step a map
over whole columns; a single h is a batch of one.  Every batch enters
the core through one helper, `_cleared`, which clears it column by
column.  Symbolic h expands each power of l(A) and zeta(A) by the
multinomial theorem over the cone's rays into an int-coefficient
MultiPoly and combines the same Laurent coefficients.  Both check that
the poles cancel, on every sample and on every symbolic evaluation, and
each divides by the common denominator once at the end.

The BKK comparison caches one sampler per (ring, gamma, i): the
integration plan of f_gamma, and a table with one int weight
k!/alpha! * <gamma x^alpha, [M]> per face monomial x^alpha of degree
k = n + i, cleared from srbundle's `pairing_polynomial`, the same
polynomial the direct potential reads.  The int core sums that table too,
building each H_j^e column it needs once per batch.  bkk_sides and
bkk_check read the sampler through the core, bkk_sides with a batch of
one; it returns both sides of one sample, for the caller to compare, and
I_gamma and F_gamma are its two sides divided by (n+i)! and by i!.
bkk_check takes a whole stream of samples and returns only the failing
ones, in sample order.  It reads the stream one sample at a time: h is
checked as support_vector checks it and queued as read under its
sampler, whose (gamma, i) is read once per call.  Every CHUNK samples,
and at the end of the stream, each sampler's queue is cleared column by
column and runs through the core as one batch, so memory stays bounded
however long the stream is.  The sides are compared as int cross
products, with Fractions built only for a failure.  An error in h or
(gamma, i) raises at its own sample; a pole error raises when its
sample's chunk is evaluated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import add, attrgetter, floordiv, mul, ne
from typing import Iterable, Sequence

from .basealg import Element, chern_power_symbolic, f_gamma
from .charpair import CharacteristicPair, cone_sign, dual_edge_frame, support_vector
from .errors import DegreeMismatchError, MalformedInputError
from .exact import as_scalar, dot, int_if_integral
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
# The vertex expansion engine.  Numeric h runs in ints, on a batch of
# samples at a time; symbolic h in int-coefficient MultiPolys.  Both read
# one plan.

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


def _laurent(power: int, c) -> tuple[tuple[int, ...], ...]:
    """a[k][j] = C(power, j) * c[k - j] for k < len(c) and j <= min(k, power)."""
    return tuple(tuple(comb(power, j) * c[k - j] for j in range(min(k, power) + 1))
                 for k in range(len(c)))


def _scaled_plans(cp: CharacteristicPair, weighted):
    """The vertex plans of weighted = ((l, d, weight), ...), ready for ints.

    Returns (den, ((n + d, flat, poles), ...)): each cone's c / den is
    multiplied by its form's weight and brought to den, the least common
    denominator of all of them, so c is an int.  The cones on which l is
    generic (m = 0) are laid out flat as (rays, l(w), c[0]).  The others
    are (rays, l(w), zeta(w), m, a) with the Laurent coefficients a =
    _laurent(n + d, c): the t^(k-m) coefficient of the cone's term sign *
    (l + t zeta)(A)^(n+d) / prod (l + t zeta)(w), times den, is
    sum_j a[k][j] * l(A)^(n+d-j) * zeta(A)^j, a pole for k < m and the
    constant term for k = m.  The weighted integral is the sum of the
    cones' constant terms over den.
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
         tuple((cone, lw, zw, m, _laurent(power, [v * (den // cden) for v in c]))
               for cone, lw, zw, m, c, cden in cones if m))
        for power, cones in scaled)


def _top(forms) -> int:
    """The largest n + d of a plan's forms, 0 without forms."""
    return max((power for power, _, _ in forms), default=0)


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


def _column(cols, rays, coeffs, size: int):
    """sum_k coeffs[k] * cols[rays[k]] over the nonzero coeffs, one entry
    per sample of a batch of size samples, as an iterator."""
    col = None
    for r, w in zip(rays, coeffs):
        if w:
            term = cols[r] if w == 1 else map(mul, cols[r], repeat(w))
            col = term if col is None else map(add, col, term)
    return repeat(0, size) if col is None else col


def _batch(plan, table, cols, scales):
    """The int core: a scaled plan and a sampler's table on a batch of
    cleared support vectors h_b = H_b / D_b, cols[i] holding H_b[i] and
    scales D_b of every sample b.

    Returns (nums, sums): the plan's integral at h_b is nums[b] / (den *
    D_b^top), top = _top(forms), and sums[b] is the table's sum weight *
    H_b^alpha.  Every step runs on whole columns.  A flat cone adds
    c * l(A)^(n+d), l(A) = sum_i l(w_i) H_i over its rays; a cone with
    m > 0 adds its constant term from the plan's Laurent coefficients, and
    its poles must cancel over the form's cones at every sample.  Each form
    is homogeneous of degree n + d in H, so it is brought to degree top by
    D^(top - n - d).  The table builds each H_j^e column it needs once per
    batch.
    """
    size = len(scales)
    _, forms = plan
    top = _top(forms)
    nums = [0] * size
    for power, flat, poles in forms:
        exps = repeat(power)
        part = [0] * size
        for rays, lw, c in flat:
            part = list(map(add, part, map(mul, map(pow, _column(cols, rays, lw, size), exps),
                                           repeat(c))))
        pole_sums: dict[int, list[int]] = {}  # pole order -> its coefficient
        for cone, lw, zw, m, a in poles:
            la0 = list(_column(cols, cone, lw, size))
            la1 = list(_column(cols, cone, zw, size))
            terms = [list(map(mul, map(pow, la0, repeat(power - j)), map(pow, la1, repeat(j))))
                     for j in range(len(a[-1]))]
            for k, row in enumerate(a):
                acc = _column(terms, range(len(row)), row, size)
                if k == m:
                    part = list(map(add, part, acc))
                else:
                    pole_sums[m - k] = list(map(add, pole_sums.get(m - k, repeat(0)), acc))
        if any(map(any, pole_sums.values())):
            raise MalformedInputError("pole terms of the vertex sum do not cancel")
        if power != top:
            part = map(mul, part, map(pow, scales, repeat(top - power)))
        nums = list(map(add, nums, part))
    sums = [0] * size
    powers: dict[tuple[int, int], Sequence[int]] = {}  # (j, e) -> the H_j^e column
    for factors, weight in table:
        term = repeat(weight)
        for factor in factors:
            col = powers.get(factor)
            if col is None:
                j, e = factor
                col = powers[factor] = cols[j] if e == 1 else list(map(pow, cols[j], repeat(e)))
            term = map(mul, term, col)
        sums = list(map(add, sums, term))
    return nums, sums


def _cleared(hs: Sequence[Sequence[Fraction]]):
    """A batch of support vectors h_b, entries Fractions or ints, cleared
    for the int core: (cols, scales) with h_b = H_b / D_b, cols[i] holding
    H_b[i] and scales D_b, the lcm of h_b's denominators, of every sample
    b.  Every step is a map over one ray's column of the batch."""
    cols = list(zip(*hs))
    dens = [list(map(attrgetter("denominator"), col)) for col in cols]
    scales = list(map(lcm, repeat(1, len(hs)), *dens))  # the 1s serve a pair without rays
    return [list(map(mul, map(attrgetter("numerator"), col), map(floordiv, scales, den)))
            for col, den in zip(cols, dens)], scales


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


def _symbolic_form(s: int, power: int, flat, poles):
    """One form's vertex sum for symbolic h, times den, as an int-coefficient
    MultiPoly in h_1..h_s (int 0 when it has no terms): the terms of _batch,
    with each power of a linear form in h expanded by the multinomial
    theorem over the cone's rays.  The poles must cancel."""
    part = sum((_linear_power(rays, lw, s, power) * c for rays, lw, c in flat), 0)
    pole_sums: dict[int, int | MultiPoly] = {}  # pole order -> its coefficient
    for cone, lw, zw, m, a in poles:
        rays = tuple(i for i, x in zip(cone, lw) if x)
        coeffs = [x for x in lw if x]
        terms = [_linear_power(rays, coeffs, s, power - j) * _linear_power(cone, zw, s, j)
                 for j in range(len(a[-1]))]
        for k, row in enumerate(a):
            acc = sum((t * v for t, v in zip(terms, row) if v), 0)
            if k == m:
                part = part + acc
            else:
                pole_sums[m - k] = pole_sums.get(m - k, 0) + acc
    if any(pole_sums.values()):
        raise MalformedInputError("pole terms of the vertex sum do not cancel")
    return part


def _evaluate(cp: CharacteristicPair, plan, h: Sequence[Fraction] | None):
    """A scaled plan's integral: a Fraction for numeric h, a MultiPoly in
    h_1..h_s when h is None.

    Numeric h is cleared to H / D with integer H and runs through the int
    core as a batch of one; one division by den * D^top ends it.
    Symbolic h has int coefficients over den, divided once at the end.
    """
    den, forms = plan
    if h is None:
        total = sum((_symbolic_form(cp.s, power, flat, poles) for power, flat, poles in forms), 0)
        terms = total.terms if total else {}  # total is the int 0 without terms
        return MultiPoly._trusted(cp.s, {e: Fraction(v, den) for e, v in terms.items()})
    cols, scales = _cleared([h])
    (num,), _ = _batch(plan, (), cols, scales)
    return Fraction(num, den * scales[0] ** _top(forms))


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

# The most samples bkk_check holds before it evaluates them, so its memory
# stays bounded however long the stream is.
CHUNK = 256


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


def _sides(sampler, i: int, k: int, num: int, total: int, scale: int):
    """Both sides of the BKK identity, (n+i)! * I_gamma and i! * F_gamma
    with k = n + i, from the int core's num and sum at h = H / scale."""
    (den, forms), _, wden = sampler
    return (Fraction(factorial(k) * num, den * scale ** _top(forms)),
            Fraction(factorial(i) * total, wden * scale ** k))


def bkk_sides(ring: BundleRing, gamma: Element, i: int,
              h: Sequence) -> tuple[Fraction, Fraction]:
    """Both sides of the BKK identity, (n+i)! * I_gamma and i! * F_gamma,
    for the caller to compare."""
    h = support_vector(ring.cp, h)
    sampler = _sampler(ring, gamma, i)
    plan, table, _ = sampler
    cols, scales = _cleared([h])
    (num,), (total,) = _batch(plan, table, cols, scales)
    return _sides(sampler, i, ring.cp.n + i, num, total, scales[0])


def I_gamma(ring: BundleRing, gamma: Element, i: int, h: Sequence) -> Fraction:
    """Integral pipeline: integral over Delta(h) of <c(x)^i gamma, [B]>,
    bkk_sides' first side over (n+i)!."""
    return bkk_sides(ring, gamma, i, h)[0] / factorial(ring.cp.n + i)


def F_gamma(ring: BundleRing, gamma: Element, i: int, h: Sequence) -> Fraction:
    """Topological pipeline: <rho(h)^(n+i) gamma, [M]>, bkk_sides' second
    side over i!."""
    return bkk_sides(ring, gamma, i, h)[1] / factorial(i)


def _check_queues(queues, n: int, failures: list):
    """Clear each sampler's queued support vectors and run them through the
    int core as one batch, append each failure as (its index in the stream,
    its report) and empty the queues.  The sides are compared as k! * num *
    wden * D^k == i! * sum * den * D^top, with k = n + i, so only a failure
    builds Fractions."""
    for _, sampler, i, rows, refs in queues:
        if not rows:
            continue
        (den, forms), table, wden = sampler
        cols, scales = _cleared(rows)
        nums, sums = _batch((den, forms), table, cols, scales)
        k, top = n + i, _top(forms)
        lhs = map(mul, nums, repeat(factorial(k) * wden))
        rhs = map(mul, sums, repeat(factorial(i) * den))
        if k > top:
            lhs = map(mul, lhs, map(pow, scales, repeat(k - top)))
        elif top > k:
            rhs = map(mul, rhs, map(pow, scales, repeat(top - k)))
        for b in compress(range(len(refs)), map(ne, lhs, rhs)):
            index, gamma, h = refs[b]
            failures.append((index, (gamma, i, h,
                                     *_sides(sampler, i, k, nums[b], sums[b], scales[b]))))
        rows.clear()
        refs.clear()


def bkk_check(ring: BundleRing, samples: Iterable[tuple[Element, int, Sequence]]):
    """The samples (gamma, i, h) at which the BKK identity fails, as
    (gamma, i, h, lhs, rhs) in sample order, lhs and rhs as in bkk_sides.

    The stream is read one sample at a time.  Its h is checked as
    support_vector checks it; the sampler of a written (gamma, i) is read
    through _sampler where it first appears, after h's checks, as in
    bkk_sides.  So such an error raises at the sample that causes it, as
    bkk_sides would.  The checked h is queued as read under its sampler,
    and every CHUNK samples each sampler's queue is cleared column by
    column and runs through the int core as one batch; a pole error raises
    there.
    """
    n, s = ring.cp.n, ring.cp.s
    # Per i and gamma's indices, which hash as ints, one queue (values,
    # sampler, i, checked h, (index, gamma, h) of each) per distinct
    # values of gamma; those are compared, not hashed, and a repeated value
    # object compares by identity.
    samplers: dict[tuple, list] = {}
    queues = []
    failures: list = []
    for index, (gamma, i, h) in enumerate(samples):
        hs = [v if type(v) is Fraction or type(v) is int else as_scalar(v) for v in h]
        if len(hs) != s:
            support_vector(ring.cp, hs)  # raises its length error
        key, values = (i, *gamma), (*gamma.values(),)
        for queue in samplers.get(key, ()):
            if queue[0] == values:
                break
        else:
            queue = (values, _sampler(ring, gamma, i), i, [], [])
            samplers.setdefault(key, []).append(queue)
            queues.append(queue)
        queue[3].append(hs)
        queue[4].append((index, gamma, h))
        if index % CHUNK == CHUNK - 1:
            _check_queues(queues, n, failures)
    _check_queues(queues, n, failures)
    failures.sort(key=lambda failure: failure[0])
    return [report for _, report in failures]


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
