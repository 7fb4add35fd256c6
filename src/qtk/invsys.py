"""Macaulay inverse systems: potentials, annihilators, Hilbert functions.

A potential is a quasi-homogeneous polynomial on a generating space; the
algebra it presents is Sym(V) modulo the differential operators that kill it.
The differential pairing is the plain apolarity action d^b x^a = a!/(a-b)!
x^(a-b); the exponential functional below carries its own 1/i! factors so the
two conventions match.

Two potentials are built for a bundle ring and must coincide: one by
integrating the base potential against the classifying map over the
multi-polytope (weight by weight in the support numbers), one directly from
the exponential of a symbolic degree-2 class evaluated against the
fundamental class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import exact
from .basealg import Element, GradedBaseAlgebra, power_product
from .charpair import CharacteristicPair
from .errors import MalformedInputError, OddClassesPresentError
from .exact import scalar_str
from .multipoly import integral_polynomial_symbolic, integrate_monomial_symbolic
from .poly import MultiPoly, weighted_monomials
from .srbundle import BundleRing, evaluate_top


@dataclass(frozen=True)
class Potential:
    """Quasi-homogeneous polynomial on a named, weighted generating space."""

    var_names: tuple[str, ...]
    weights: tuple[int, ...]
    poly: MultiPoly
    degree: int

    def __post_init__(self):
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


@dataclass(frozen=True)
class HilbertFunction:
    """Graded dimensions of Sym(V)/Ann indexed by weighted degree."""

    dims: tuple[int, ...]

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def even(self) -> tuple[int, ...]:
        return tuple(self.dims[0::2])

    def is_symmetric(self) -> bool:
        return self.dims == tuple(reversed(self.dims))


# ---------------------------------------------------------------------------
# Potential constructions.

def volume_potential(cp: CharacteristicPair) -> Potential:
    """Signed volume as a polynomial on the support numbers (all weights 2)."""
    sym = integral_polynomial_symbolic(cp, MultiPoly.constant(cp.n, 1))
    names = tuple(f"h{i + 1}" for i in range(cp.s))
    return Potential(names, (2,) * cp.s, sym.poly, 2 * cp.n)


def _require_even(alg: GradedBaseAlgebra) -> None:
    if any(d % 2 for d in alg.degrees):
        raise OddClassesPresentError("base algebra has odd-degree classes")


def _positive_indices(alg: GradedBaseAlgebra) -> list[int]:
    return [i for i, d in enumerate(alg.degrees) if d > 0]


def base_potential(alg: GradedBaseAlgebra) -> Potential:
    """Exponential functional of the base: the coefficient of a monomial in
    the positive-degree coordinates is the fundamental pairing of the
    corresponding product divided by the factorials of the exponents."""
    _require_even(alg)
    pos = _positive_indices(alg)
    names = tuple(alg.names[i] for i in pos)
    weights = tuple(alg.degrees[i] for i in pos)
    units = [{i: Fraction(1)} for i in pos]
    terms = {}
    for expo in weighted_monomials(weights, alg.top):
        val = alg.integrate(power_product(alg, units, expo))
        for e in expo:
            val /= factorial(e)
        if val:
            terms[expo] = val
    return Potential(names, weights, MultiPoly(len(pos), terms), alg.top)


def _bundle_space(ring: BundleRing) -> tuple[tuple[str, ...], tuple[int, ...], list[int]]:
    pos = _positive_indices(ring.base)
    names = tuple(ring.base.names[i] for i in pos) \
        + tuple(f"h{i + 1}" for i in range(ring.cp.s))
    weights = tuple(ring.base.degrees[i] for i in pos) + (2,) * ring.cp.s
    return names, weights, pos


def bundle_potential_integral(ring: BundleRing) -> Potential:
    """Potential of the bundle by integration: substitute the classifying
    map into the base potential's degree-2 slots and integrate the character
    variables over the multi-polytope, symbolically in the support numbers."""
    _require_even(ring.base)
    names, weights, pos = _bundle_space(ring)
    pb = base_potential(ring.base)
    npos, n, s = len(pos), ring.cp.n, ring.cp.s
    nv_mid = npos + n  # intermediate space: base coordinates + characters
    images = []
    for slot, idx in enumerate(pos):
        img = MultiPoly.variable(nv_mid, slot)
        if ring.base.degrees[idx] == 2:
            for a in range(n):
                coeff = dict(ring.chern.images[a]).get(idx, Fraction(0))
                if coeff:
                    img = img + MultiPoly.variable(nv_mid, npos + a) * coeff
        images.append(img)
    shifted = pb.poly.substitute(images) if npos else MultiPoly.constant(nv_mid, pb.poly.coefficient(()))
    # integrate out the character variables, one lambda-monomial at a time
    nv_out = npos + s
    out = MultiPoly.zero(nv_out)
    integral_cache: dict[tuple[int, ...], MultiPoly] = {}
    for expo, coeff in shifted.items():
        beta, alpha = expo[:npos], expo[npos:]
        if alpha not in integral_cache:
            integral_cache[alpha] = integrate_monomial_symbolic(ring.cp, alpha)
        ih = integral_cache[alpha].embed(nv_out, list(range(npos, nv_out)))
        ybeta = MultiPoly.monomial(beta + (0,) * s)
        out = out + ybeta * ih * coeff
    return Potential(names, weights, out, ring.base.top + 2 * ring.cp.n)


def bundle_potential_direct(ring: BundleRing) -> Potential:
    """Potential of the bundle from the ring itself: expand the exponential
    of a symbolic degree-2 class and evaluate every top-degree monomial."""
    _require_even(ring.base)
    names, weights, pos = _bundle_space(ring)
    npos, s = len(pos), ring.cp.s
    target = ring.base.top + 2 * ring.cp.n
    units = [{i: Fraction(1)} for i in pos]
    terms = {}
    for expo in weighted_monomials(weights, target):
        beta, alpha = expo[:npos], expo[npos:]
        coeff_el = power_product(ring.base, units, beta)
        if not coeff_el:
            continue
        val = evaluate_top(ring, {(alpha, idx): c for idx, c in coeff_el.items()})
        if not val:
            continue
        for e in expo:
            val /= factorial(e)
        terms[expo] = val
    return Potential(names, weights, MultiPoly(npos + s, terms), target)


# ---------------------------------------------------------------------------
# Annihilators.

def apply_operator(q: MultiPoly, p: MultiPoly) -> MultiPoly:
    """Apply q, read as a constant-coefficient differential operator, to p."""
    out = MultiPoly.zero(p.nvars)
    for expo, coeff in q.items():
        out = out + p.apply_derivative(expo) * coeff
    return out


def _apolar_rows(p: Potential, d: int) -> tuple[list[tuple[int, ...]], list[dict]]:
    """The degree-d monomials and the map m -> m(p) as sparse rows: one row
    per monomial of degree p.degree - d, holding its coefficient in each
    image, so the row kernel is Ann(p) in degree d."""
    monos = weighted_monomials(p.weights, d)
    index = {t: k for k, t in enumerate(weighted_monomials(p.weights, p.degree - d))}
    rows: list[dict[int, Fraction]] = [{} for _ in index]
    for i, m in enumerate(monos):
        for t, c in p.poly.apply_derivative(m).terms.items():
            rows[index[t]][i] = c
    return monos, rows


def ann_hilbert(p: Potential) -> HilbertFunction:
    """Graded dimensions of Sym(V)/Ann(p) by exact rank, per weighted degree."""
    dims = []
    for d in range(p.degree + 1):
        monos, rows = _apolar_rows(p, d)
        dims.append(exact.rank(rows, len(monos)))
    return HilbertFunction(tuple(dims))


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
                prod = g * MultiPoly.monomial(m)
                span.insert({index[expo]: c for expo, c in prod.terms.items()})
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


def hilbert_json(hf: HilbertFunction) -> dict:
    return {"dims_by_weighted_degree": list(hf.dims), "dims_even": list(hf.even())}
