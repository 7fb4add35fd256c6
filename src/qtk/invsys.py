"""Macaulay inverse systems: potentials, annihilators, Hilbert functions.

A potential is a quasi-homogeneous polynomial on a generating space; the
algebra it presents is Sym(V) modulo the differential operators that kill it.
The differential pairing is the plain apolarity action d^b x^a = a!/(a-b)!
x^(a-b); the exponential functional below carries its own 1/i! factors so the
two conventions match.

The potential of a bundle ring lives on the positive-degree base classes y
and the support numbers h.  Its coefficient of y^beta is a polynomial in h
fixed by gamma = b^beta / beta!, and it is built twice, on one skeleton over
the base monomials b^beta, and the two must coincide: by integration, the
generalized BKK integral of <c(x)^i gamma, [B]> / i! over the multi-polytope
symbolically in h (Khovanskii-Pukhlikov), and directly, as srbundle's
pairing polynomial: the sum of <gamma x^alpha, [M]> h^alpha / alpha! over
the face monomials x^alpha of degree n + i, which the BKK sampler of
multipoly reads too.  A Hilbert function is the plain tuple of dimensions
by weighted degree.

Ann(p) in degree d is the kernel of the catalecticant matrix of p
(Iarrobino-Kanev, Power Sums, Gorenstein Algebras, and Determinantal Loci,
1999), read straight off p's terms: a term c x^e puts c e!/(e-m)! at row
e - m and column m for each degree-d monomial m dividing x^e.  The rows of
a lower generator times x^m are its exponents shifted by m.  Only the
check that each generator kills p differentiates p.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm, prod
from operator import add, sub

from . import exact
from .basealg import Element, GradedBaseAlgebra, el_scale, f_gamma, power_product
from .charpair import CharacteristicPair
from .errors import MalformedInputError, OddClassesPresentError
from .exact import scalar_str
from .multipoly import integral_polynomial_symbolic
from .poly import MultiPoly, weighted_monomials
from .record import Record
from .srbundle import BundleRing, pairing_polynomial


class Potential(Record):
    """Quasi-homogeneous polynomial on a named, weighted generating space."""

    __slots__ = ("var_names", "weights", "poly", "degree")
    var_names: tuple[str, ...]
    weights: tuple[int, ...]
    poly: MultiPoly
    degree: int

    def _check(self):
        if len(self.weights) != self.poly.nvars or any(w <= 0 or w % 2 for w in self.weights):
            raise MalformedInputError("weights must be positive even ints, one per variable")
        if any(sum(w * e for w, e in zip(self.weights, expo)) != self.degree
               for expo in self.poly.terms):
            raise MalformedInputError(
                f"potential is not quasi-homogeneous of weighted degree {self.degree}")

    def to_json(self) -> dict:
        return {
            "vars": [{"name": n, "weight": w}
                     for n, w in zip(self.var_names, self.weights)],
            "degree": self.degree,
            "terms": {
                ",".join(str(e) for e in expo): scalar_str(c)
                for expo, c in self.poly.items()
            },
        }


# ---------------------------------------------------------------------------
# Potential constructions.

def volume_potential(cp: CharacteristicPair) -> Potential:
    """Signed volume as a polynomial on the support numbers (all weights 2)."""
    poly = integral_polynomial_symbolic(cp, MultiPoly.constant(cp.n, 1))
    names = tuple(f"h{i + 1}" for i in range(cp.s))
    return Potential(names, (2,) * cp.s, poly, 2 * cp.n)


def _require_even(alg: GradedBaseAlgebra) -> None:
    if any(d % 2 for d in alg.degrees):
        raise OddClassesPresentError("base algebra has odd-degree classes")


def _bundle_potential(ring: BundleRing, h_part) -> Potential:
    """The potential sum of y^beta * h_part(b^beta / beta!, i) over the base
    monomials b^beta of degree top - 2i, i = 0 .. top/2, on the
    positive-degree base classes y and the support numbers h_1..h_s.

    h_part(gamma, i) is a polynomial in h of degree n + i, linear in gamma,
    so it is called once per i and class up to scale: on gamma divided by
    its coefficient at its lowest basis index, the result multiplied back.
    Many base monomials share a class (on CP^m every b^beta of one degree
    is a multiple of the same power of t).  A base with odd-degree classes
    is rejected here, for both builders.
    """
    base = ring.base
    _require_even(base)
    pos = [k for k, d in enumerate(base.degrees) if d > 0]
    weights = tuple(base.degrees[k] for k in pos)
    units = [{k: Fraction(1)} for k in pos]
    terms = {}
    parts: dict[tuple, MultiPoly] = {}
    for i in range(base.top // 2 + 1):
        for beta in weighted_monomials(weights, base.top - 2 * i):
            gamma = el_scale(power_product(base, units, beta),
                             Fraction(1, prod(map(factorial, beta))))
            if gamma:
                lead = gamma[min(gamma)]
                key = (i, tuple(sorted((k, x / lead) for k, x in gamma.items())))
                if key not in parts:
                    parts[key] = h_part(dict(key[1]), i)
                for alpha, c in parts[key].terms.items():
                    terms[beta + alpha] = c * lead
    names = tuple(base.names[k] for k in pos) + tuple(f"h{j + 1}" for j in range(ring.cp.s))
    return Potential(names, weights + (2,) * ring.cp.s,
                     MultiPoly(len(pos) + ring.cp.s, terms), ring.total_degree)


def bundle_potential_integral(ring: BundleRing) -> Potential:
    """Potential of the bundle by integration: the coefficient of gamma is
    the integral over Delta(h) of <c(x)^i gamma, [B]> / i!, symbolically in
    the support numbers (the generalized BKK integrand f_gamma)."""
    def h_part(gamma: Element, i: int) -> MultiPoly:
        f = f_gamma(ring.base, ring.chern, gamma, i)
        return integral_polynomial_symbolic(ring.cp, f) / factorial(i)
    return _bundle_potential(ring, h_part)


def bundle_potential_direct(ring: BundleRing) -> Potential:
    """Potential of the bundle from the ring itself: the coefficient of gamma
    is its pairing polynomial, the sum over the face monomials x^alpha of
    degree n + i of <gamma x^alpha, [M]> h^alpha / alpha!."""
    return _bundle_potential(
        ring, lambda gamma, i: pairing_polynomial(ring, gamma, ring.cp.n + i))


# ---------------------------------------------------------------------------
# Annihilators.

def apply_operator(q: MultiPoly, p: MultiPoly) -> MultiPoly:
    """Apply q, read as a constant-coefficient differential operator, to p."""
    out = MultiPoly.zero(p.nvars)
    for expo, coeff in q.items():
        out = out + p.apply_derivative(expo) * coeff
    return out


def _divisors(e: tuple[int, ...], weights: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    """The exponents m <= e (componentwise) of weighted degree d."""
    support = [k for k, a in enumerate(e) if a]
    room = [0]  # room[j]: the largest weighted degree of the last j support entries
    for k in reversed(support):
        room.append(room[-1] + e[k] * weights[k])
    picks = [((), d)]
    for j, k in enumerate(support):
        a, w, rest = e[k], weights[k], room[len(support) - 1 - j]
        picks = [(bs + (b,), r - b * w) for bs, r in picks
                 for b in range(max(0, -((rest - r) // w)), min(a, r // w) + 1)]
    out = []
    for bs, r in picks:
        if r == 0:
            m = [0] * len(e)
            for k, b in zip(support, bs):
                m[k] = b
            out.append(tuple(m))
    return out


def _apolar_rows(p: Potential, d: int) -> tuple[list[tuple[int, ...]], list[dict]]:
    """The degree-d monomials and the map m -> m(p) as sparse rows: one row
    per monomial of degree p.degree - d, holding its coefficient in each
    image, so the row kernel is Ann(p) in degree d.

    This is the catalecticant matrix of p, read off its terms: a term
    c x^e gives c e!/(e-m)! at row e - m, column m, for every degree-d
    monomial m dividing x^e, and no two terms meet at one entry.
    """
    monos = weighted_monomials(p.weights, d)
    column = {m: k for k, m in enumerate(monos)}
    index = {t: k for k, t in enumerate(weighted_monomials(p.weights, p.degree - d))}
    rows: list[dict[int, Fraction]] = [{} for _ in index]
    for e, c in p.poly.terms.items() if monos else ():
        for m in _divisors(e, p.weights, d):
            rows[index[tuple(map(sub, e, m))]][column[m]] = c * prod(map(perm, e, m))
    return monos, rows


def ann_hilbert(p: Potential) -> tuple[int, ...]:
    """Graded dimensions of Sym(V)/Ann(p) by exact rank, per weighted degree
    0 .. p.degree."""
    dims = []
    for d in range(p.degree + 1):
        monos, rows = _apolar_rows(p, d)
        dims.append(exact.rank(rows, len(monos)))
    return tuple(dims)


def ann_generators(p: Potential, up_to_degree: int | None = None) -> dict[int, list[MultiPoly]]:
    """Minimal new annihilator generators per weighted degree.

    Degree-d generators are a basis of Ann_d modulo (lower generators)*Sym;
    every returned operator is checked to kill the potential.
    """
    # Every monomial above p.degree kills p, so above p.degree plus the
    # largest weight each one is a variable times a lower annihilator and no
    # generator is new.  The default, p.degree + 2, is that bound for weight 2.
    bound = p.degree + max(p.weights, default=2)
    up_to_degree = p.degree + 2 if up_to_degree is None else min(up_to_degree, bound)
    gens: dict[int, list[MultiPoly]] = {}
    gens_flat: list[tuple[int, MultiPoly]] = []
    for d in range(1, up_to_degree + 1):
        monos, rows = _apolar_rows(p, d)
        if not monos:
            continue
        index = {m: i for i, m in enumerate(monos)}
        span = exact.RowSpace(len(monos))
        for gd, g in gens_flat:
            for m in weighted_monomials(p.weights, d - gd):
                # the row of g * x^m: g's exponents shifted by m
                span.insert({index[tuple(map(add, expo, m))]: c
                             for expo, c in g.terms.items()})
        new: list[MultiPoly] = []
        for vec in exact.kernel_basis(rows, len(monos)):
            if span.insert(vec):
                g = MultiPoly(len(p.weights), {monos[i]: c for i, c in vec.items()})
                if apply_operator(g, p.poly):
                    raise MalformedInputError("generator fails to kill the potential")
                new.append(g)
        if new:
            gens[d] = new
            gens_flat.extend((d, g) for g in new)
    return gens


# ---------------------------------------------------------------------------
# Frobenius form kernel of a finite graded algebra.

def frobenius_kernel(alg: GradedBaseAlgebra, top: int | None = None) -> dict[int, list[Element]]:
    """Per degree, a basis of the two-sided kernel of (a, b) -> l(a*b).

    The left and right kernels are checked to agree; the quotient by the
    kernel is the self-dual algebra attached to the top functional.  `top`
    overrides the socle degree when it exceeds the largest basis degree.
    """
    if top is None:
        top = alg.top
    out: dict[int, list[Element]] = {}
    for d in sorted(set(alg.degrees)):
        rows_idx = alg.indices_of_degree(d)
        cols_idx = alg.indices_of_degree(top - d)
        # a is in the left kernel iff l(a*b) = 0 for every b: one row per b.
        left = exact.kernel_basis(
            ({k: alg.integrate(alg.basis_product(i, j)) for k, i in enumerate(rows_idx)}
             for j in cols_idx), len(rows_idx))
        right = exact.kernel_basis(
            ({k: alg.integrate(alg.basis_product(j, i)) for k, i in enumerate(rows_idx)}
             for j in cols_idx), len(rows_idx))
        left_span = exact.RowSpace(len(rows_idx), left)
        if len(right) != len(left) or not all(map(left_span.contains, right)):
            raise MalformedInputError("left and right Frobenius kernels differ")
        vectors = [{rows_idx[k]: c for k, c in v.items()} for v in left]
        if vectors:
            out[d] = vectors
    return out


def hilbert_json(dims: tuple[int, ...]) -> dict:
    return {"dims_by_weighted_degree": list(dims), "dims_even": list(dims[0::2])}
