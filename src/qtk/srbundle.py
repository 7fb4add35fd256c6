"""Stanley-Reisner model of the cohomology of a quasitoric bundle.

The ring is base[x_1..x_s] modulo (i) monomials whose ray set spans no cone
and (ii) the linear relations c(lambda) - sum_i <lam_i, lambda> x_i.  An
element is one flat sparse dict mapping (x-exponent tuple, base basis index)
to a nonzero Fraction: the pair names the term b_idx * x^expo, exactly as
`graded_basis` lists it, and its degree is the base degree plus twice the
x-degree.  The x_i are even, so the product of two terms multiplies their
base parts in order, through the structure constant of (i, j), and odd base
classes keep their Koszul signs.

`reduce` rewrites any element into square-free face form by repeatedly
eliminating one factor of a repeated variable through a dual character; the
multiplicity of every produced monomial drops by one, so it terminates.
With the canonical characters the rewriting is linear over the base, so each
x-monomial is reduced once per ring and cached, and so is its pairing with
the fundamental class against every base class (`evaluate_top`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, prod
from typing import Callable, Sequence

from . import exact
from .basealg import ChernData, Element, GradedBaseAlgebra, el_add, el_scale
from .charpair import (CharacteristicPair, cone_sign, dual_character, faces,
                       is_face)
from .errors import DegreeMismatchError, MalformedInputError

Expo = tuple[int, ...]
BundleElement = dict[tuple[Expo, int], Fraction]


@dataclass(frozen=True)
class BundleRing:
    cp: CharacteristicPair
    base: GradedBaseAlgebra
    chern: ChernData

    def __post_init__(self):
        if self.chern.n != self.cp.n:
            raise MalformedInputError("chern rank does not match fan dimension")
        for name in self.base.names:
            if name[:1] in ("x", "h") and name[1:].isdigit():
                raise MalformedInputError(
                    f"base name {name!r} collides with divisor or support variables")
        # Cached reductions key on the ring; hash the Chern data's Fractions once.
        object.__setattr__(self, "_hash", hash((self.cp, self.base, self.chern)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def total_degree(self) -> int:
        return self.base.top + 2 * self.cp.n

    def zero_expo(self) -> Expo:
        return (0,) * self.cp.s


# ---------------------------------------------------------------------------
# Element constructors and arithmetic.

def _bump(expo: Expo, i: int, by: int = 1) -> Expo:
    return expo[:i] + (expo[i] + by,) + expo[i + 1:]


def lift(ring: BundleRing, gamma: Element) -> BundleElement:
    """Base element viewed in the bundle ring."""
    zero = ring.zero_expo()
    return {(zero, idx): c for idx, c in gamma.items() if c}


def one(ring: BundleRing) -> BundleElement:
    return lift(ring, ring.base.unit())


def x_class(ring: BundleRing, i: int) -> BundleElement:
    if not 0 <= i < ring.cp.s:
        raise MalformedInputError(f"no divisor variable x{i + 1}")
    return {(_bump(ring.zero_expo(), i), ring.base.unit_index()): Fraction(1)}


def rho(ring: BundleRing, h: Sequence) -> BundleElement:
    """The degree-2 class of a multi-polytope: sum_i h_i x_i."""
    zero, unit = ring.zero_expo(), ring.base.unit_index()
    out: BundleElement = {}
    for i, v in enumerate(h):
        v = Fraction(exact.as_scalar(v))
        if v:
            out[(_bump(zero, i), unit)] = v
    return out


def rho_power(ring: BundleRing, h: Sequence[int], k: int,
              gamma: Element) -> BundleElement:
    """gamma * rho(h)^k by the multinomial theorem.

    rho(h)^k is the sum over x-monomials x^alpha of degree k of
    k!/alpha! * h^alpha * x^alpha; the monomials whose support is no face
    are zero in the ring, so only `_face_monomials` are kept, which is
    exact.  The x_i are even and rho has unit base part, so gamma only
    scales each term.  Integer h and gamma give int coefficients.
    """
    scales = [(idx, exact.int_if_integral(g)) for idx, g in gamma.items() if g]
    out: BundleElement = {}
    for expo, factors, mult in _multinomials(ring.cp, k):
        c = mult
        for i, e in factors:
            c *= h[i] ** e
        if c:
            for idx, g in scales:
                out[expo, idx] = c * g
    return out


@lru_cache(maxsize=None)
def _multinomials(cp: CharacteristicPair, k: int):
    """Per face monomial x^alpha of degree k: (alpha, its (i, alpha_i) with
    alpha_i > 0, k!/alpha!)."""
    return tuple((expo, tuple((i, e) for i, e in enumerate(expo) if e),
                  factorial(k) // prod(factorial(e) for e in expo))
                 for expo in _face_monomials(cp, k))


def bel_mul(ring: BundleRing, a: BundleElement, b: BundleElement) -> BundleElement:
    """Product of two elements: b_i x^e1 * b_j x^e2 = (b_i b_j) x^(e1+e2)."""
    products = ring.base.products
    out: BundleElement = {}
    for (e1, i), c1 in a.items():
        for (e2, j), c2 in b.items():
            prod = products.get((i, j))
            if not prod:
                continue
            expo = tuple(x + y for x, y in zip(e1, e2))
            c = c1 * c2
            for k, ck in prod.items():
                v = out.get((expo, k), 0) + c * ck
                if v:
                    out[expo, k] = v
                else:
                    del out[expo, k]
    return out


def term_degrees(ring: BundleRing, a: BundleElement) -> set[int]:
    return {ring.base.degrees[idx] + 2 * sum(expo) for expo, idx in a}


# ---------------------------------------------------------------------------
# Square-free reduction.

def _support(expo: Expo) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(expo) if e)

CharacterChooser = Callable[[tuple[int, ...], int], tuple[int, ...]]


def reduce(ring: BundleRing, el: BundleElement,
           chooser: CharacterChooser | None = None) -> BundleElement:
    """Normal form: only square-free monomials supported on faces survive.

    `chooser(face, j)` supplies the dual character used to eliminate one
    factor of x_j; the default is the canonical minimal one.  Any valid
    choice yields the same pairings (not necessarily the same terms).

    The rewriting only multiplies coefficients on the right by base classes
    and rationals, so by associativity (which the base's validation checks)
    coeff * x^expo reduces to coeff times the reduction of x^expo.  With the
    default chooser that reduction is cached per ring and exponent; an
    explicit chooser always runs the rewriting itself.
    """
    if chooser is not None:
        return _rewrite(ring, el, chooser)
    products = ring.base.products
    out: BundleElement = {}
    for (expo, i), c in el.items():
        for (e, j), r in _reduced_monomial(ring, expo):
            prod = products.get((i, j))
            if not prod:
                continue
            cr = c * r
            for k, ck in prod.items():
                v = out.get((e, k), 0) + cr * ck
                if v:
                    out[e, k] = v
                else:
                    del out[e, k]
    return out


@lru_cache(maxsize=None)
def _reduced_monomial(ring: BundleRing,
                      expo: Expo) -> tuple[tuple[tuple[Expo, int], Fraction], ...]:
    """Canonical normal form of x^expo with unit coefficient, as items."""
    cp = ring.cp
    nf = _rewrite(ring, {(expo, ring.base.unit_index()): Fraction(1)},
                  lambda face, j: dual_character(cp, face, j))
    return tuple(nf.items())


def _rewrite(ring: BundleRing, el: BundleElement,
             chooser: CharacterChooser) -> BundleElement:
    cp = ring.cp
    out: BundleElement = {}
    # Work items carry a whole base coefficient so that c(chi) multiplies it
    # once, from the right, as base.mul(coeff, c(chi)).
    work: list[tuple[Expo, Element]] = [(e, {idx: c}) for (e, idx), c in el.items()]
    while work:
        expo, coeff = work.pop()
        if not coeff:
            continue
        supp = _support(expo)
        if not is_face(cp, supp):
            continue
        repeated = [i for i in supp if expo[i] > 1]
        if not repeated:
            out = el_add(out, {(expo, idx): c for idx, c in coeff.items()})
            continue
        j = repeated[0]
        chi = chooser(supp, j)
        lowered = _bump(expo, j, -1)
        c_chi = ring.chern.evaluate(chi)
        if c_chi:
            work.append((lowered, ring.base.mul(coeff, c_chi)))
        for i in range(cp.s):
            if i in supp:
                continue
            pairing = sum(a * b for a, b in zip(cp.lam[i], chi))
            if pairing:
                work.append((_bump(lowered, i), el_scale(coeff, -pairing)))
    return out


# ---------------------------------------------------------------------------
# Evaluation against the fundamental class.

def evaluate_top(ring: BundleRing, el: BundleElement,
                 chooser: CharacterChooser | None = None) -> Fraction:
    """Pairing of a top-degree element with the fundamental class.

    After reduction, a square-free face monomial on a maximal cone J with
    base coefficient g contributes sign(J) * <g, [B]>; smaller supports force
    the coefficient above the base's top degree, hence vanish.  With the
    default chooser every term reads its cached `_top_pairing`; integer
    coefficients are then summed as ints.
    """
    degs = term_degrees(ring, el)
    if degs - {ring.total_degree}:
        raise DegreeMismatchError(
            f"element has degrees {sorted(degs)}, expected {ring.total_degree}")
    if chooser is None:
        total = 0
        for (expo, idx), c in el.items():
            total += c * _top_pairing(ring, expo)[idx]
        return Fraction(total)
    total = Fraction(0)
    for (expo, idx), c in reduce(ring, el, chooser).items():
        supp = _support(expo)
        if len(supp) != ring.cp.n:
            continue
        total += cone_sign(ring.cp, supp).value * c * ring.base.fundamental[idx]
    return total


@lru_cache(maxsize=None)
def _top_pairing(ring: BundleRing, expo: Expo) -> tuple[int | Fraction, ...]:
    """<b_g x^expo, [M]> for every base index g, as ints where integral.

    Linear over the base exactly like reduce's cached path: b_g x^expo
    reduces to b_g times the normal form of x^expo, whose terms r b_j x^e on
    a maximal cone pair to sign(e) r <b_g b_j, [B]>.
    """
    base, cp = ring.base, ring.cp
    top = []
    for (e, j), r in _reduced_monomial(ring, expo):
        supp = _support(e)
        if len(supp) == cp.n:
            top.append((cone_sign(cp, supp).value * r, j))
    out = []
    for g in range(base.dim):
        val = sum((v * base.integrate(base.products.get((g, j), {})) for v, j in top),
                  Fraction(0))
        out.append(exact.int_if_integral(val))
    return tuple(out)


def intersection_number(ring: BundleRing, classes: Sequence[BundleElement],
                        gamma: Element | None = None) -> Fraction:
    """Top evaluation of a product of classes times a base class."""
    acc = lift(ring, gamma) if gamma is not None else one(ring)
    for cl in classes:
        acc = bel_mul(ring, acc, cl)
    return evaluate_top(ring, acc)


# ---------------------------------------------------------------------------
# Graded dimensions by exact linear algebra.

@lru_cache(maxsize=None)
def _face_monomials(cp: CharacteristicPair, xdeg: int) -> tuple[Expo, ...]:
    """x-monomials of the given degree whose support is a face, sorted."""
    if xdeg == 0:
        return ((0,) * cp.s,)
    out = []
    for face in faces(cp):
        t = len(face)
        if t > xdeg:
            continue
        # compositions of xdeg into t positive parts, placed on the face
        for cut in combinations(range(1, xdeg), t - 1):
            parts = [b - a for a, b in zip((0,) + cut, cut + (xdeg,))]
            expo = [0] * cp.s
            for i, p in zip(face, parts):
                expo[i] = p
            out.append(tuple(expo))
    return tuple(sorted(out))


def graded_basis(ring: BundleRing, d: int) -> list[tuple[Expo, int]]:
    """Spanning monomial basis of degree d before the linear relations:
    pairs (x-exponent with face support, base basis index)."""
    out = []
    for xdeg in range(d // 2 + 1):
        base_deg = d - 2 * xdeg
        idxs = ring.base.indices_of_degree(base_deg)
        if not idxs:
            continue
        for expo in _face_monomials(ring.cp, xdeg):
            for idx in idxs:
                out.append((expo, idx))
    return out


def _expand(ring: BundleRing, el: BundleElement,
            index: dict[tuple[Expo, int], int]) -> dict[int, Fraction]:
    """Coordinates of an element in a graded spanning basis as a sparse row
    (non-face terms are zero in the ring and are dropped)."""
    return {index[pair]: c for pair, c in el.items()
            if is_face(ring.cp, _support(pair[0]))}


def relation_vectors(ring: BundleRing, d: int) -> tuple[list[tuple[Expo, int]], list[dict]]:
    """Spanning basis of degree d and sparse rows spanning the relations in it.

    One row per degree-(d-2) basis term b x^expo and standard character a:
    the relation c(e_a) - sum_i lam_i[a] x_i times it, which is
    c(e_a) b x^expo minus lam_i[a] at each face term b x^(expo + e_i).
    """
    basis = graded_basis(ring, d)
    index = {pair: i for i, pair in enumerate(basis)}
    vectors = []
    if d >= 2:
        cp, base = ring.cp, ring.base
        for expo, b in graded_basis(ring, d - 2):
            up = [index.get((_bump(expo, i), b)) for i in range(cp.s)]
            for a in range(cp.n):
                row = {index[expo, k]: c
                       for k, c in base.mul(ring.chern.image(a), {b: 1}).items()}
                for i, col in enumerate(up):
                    if col is not None and cp.lam[i][a]:
                        row[col] = -cp.lam[i][a]
                vectors.append(row)
    return basis, vectors


def betti(ring: BundleRing) -> list[int]:
    """Graded dimensions of the quotient in degrees 0..(base top + 2n)."""
    dims = []
    for d in range(ring.total_degree + 1):
        basis, vectors = relation_vectors(ring, d)
        dims.append(len(basis) - exact.rank(vectors, len(basis)))
    return dims


# ---------------------------------------------------------------------------
# Explicit quotient algebra (basis, products, functional).

def quotient_algebra(ring: BundleRing) -> GradedBaseAlgebra:
    """The quotient ring as explicit algebra data with the top functional
    given by evaluation against the fundamental class.

    Representatives are monomials (base element times square-free-or-not
    x-monomial); products are re-expanded exactly through the relations.
    Products above the formal dimension `top` are zero: the relations are
    checked by rank to span degrees top+1 and top+2, and every spanning term
    of degree D > top carries some x_i (its base part has degree at most the
    base's top), so degree D >= top+3 is x_i times degree D-2 and the
    quotient vanishes above top by induction.
    """
    top = ring.total_degree
    for d in (top + 1, top + 2):
        basis, vectors = relation_vectors(ring, d)
        if exact.rank(vectors, len(basis)) != len(basis):
            raise MalformedInputError("quotient does not vanish above top degree")
    per_degree: dict[int, dict] = {}
    names: list[str] = []
    degrees: list[int] = []
    rep_elements: list[BundleElement] = []
    for d in range(top + 1):
        basis, vectors = relation_vectors(ring, d)
        span = exact.RowSpace(len(basis), vectors)
        # The representatives extend the relation span to everything, column
        # by column from the left: exactly RowSpace's free columns.
        chosen = span.free_columns()
        per_degree[d] = {"index": {p: i for i, p in enumerate(basis)}, "span": span,
                         "rep": {j: len(names) + k for k, j in enumerate(chosen)}}
        for j in chosen:
            expo, idx = basis[j]
            names.append(_pair_name(ring, expo, idx))
            degrees.append(d)
            rep_elements.append({(expo, idx): Fraction(1)})

    def coords(el: BundleElement, d: int) -> Element:
        # The normal form lives on the free columns, which are the chosen
        # representatives, so its entries there are the coordinates.
        info = per_degree[d]
        nf = info["span"].normal_form(_expand(ring, el, info["index"]))
        return {info["rep"][j]: c for j, c in nf.items()}

    products: dict[tuple[int, int], Element] = {}
    for p, u in enumerate(rep_elements):
        for q, v in enumerate(rep_elements):
            d = degrees[p] + degrees[q]
            if d <= top:
                el = coords(bel_mul(ring, u, v), d)
                if el:
                    products[(p, q)] = el
    fundamental = [evaluate_top(ring, rep) if degrees[p] == top else Fraction(0)
                   for p, rep in enumerate(rep_elements)]
    return GradedBaseAlgebra(names, degrees, products, fundamental)


def _pair_name(ring: BundleRing, expo: Expo, idx: int) -> str:
    xs = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                  for i, e in enumerate(expo) if e)
    base = ring.base.names[idx]
    if not xs:
        return base
    if base == "1":
        return xs
    return f"{base}*{xs}"
