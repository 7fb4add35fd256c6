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
`evaluate_top` reduces a top-degree element with the canonical characters
and pairs each surviving term, a maximal cone times a base class, with the
fundamental class; it caches nothing.  Powers
of rho are not expanded: by the multinomial theorem
<gamma * rho(h)^k, [M]> is k! times the pairing polynomial
sum <gamma x^alpha, [M]> h^alpha / alpha! over the face monomials x^alpha
of degree k (`pairing_polynomial`), since the x_i are even, rho has unit
base part, and a monomial whose support is no face is zero in the ring.  The direct potential of invsys and the BKK
sampler of multipoly both read it.
"""

from __future__ import annotations

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
from .poly import MultiPoly
from .record import Record

Expo = tuple[int, ...]
BundleElement = dict[tuple[Expo, int], Fraction]


class BundleRing(Record):
    __slots__ = ("cp", "base", "chern", "_hash")
    cp: CharacteristicPair
    base: GradedBaseAlgebra
    chern: ChernData

    def _check(self):
        if self.chern.n != self.cp.n:
            raise MalformedInputError("chern rank does not match fan dimension")
        for name in self.base.names:
            if name[:1] in ("x", "h") and name[1:].isdigit():
                raise MalformedInputError(
                    f"base name {name!r} collides with divisor or support variables")
        # Cached reductions key on the ring; hash the Chern data's Fractions once.
        object.__setattr__(self, "_hash", super().__hash__())

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
    factor of x_j; the default is the canonical minimal one,
    `dual_character`.  Any valid choice yields the same pairings (not
    necessarily the same terms).  Nothing here is cached.
    """
    cp = ring.cp
    if chooser is None:
        chooser = lambda face, j: dual_character(cp, face, j)
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

def evaluate_top(ring: BundleRing, el: BundleElement) -> Fraction:
    """Pairing of a top-degree element with the fundamental class.

    After reduction every term is a square-free face monomial b_idx x^J of
    top degree; a face smaller than a maximal cone would need a base class
    above the base's top degree, so J is a maximal cone, and the term
    contributes sign(J) * <b_idx, [B]>.
    """
    degs = term_degrees(ring, el)
    if degs - {ring.total_degree}:
        raise DegreeMismatchError(
            f"element has degrees {sorted(degs)}, expected {ring.total_degree}")
    cp, fundamental = ring.cp, ring.base.fundamental
    return sum((cone_sign(cp, _support(expo)) * c * fundamental[idx]
                for (expo, idx), c in reduce(ring, el).items()), Fraction(0))


def pairing_polynomial(ring: BundleRing, gamma: Element, k: int) -> MultiPoly:
    """sum <gamma x^alpha, [M]> h^alpha / alpha! over the face monomials
    x^alpha of degree k, a polynomial in h_1..h_s: the intersection side
    of the generalized BKK theorem, <gamma * rho(h)^k, [M]> / k!."""
    terms = {}
    for alpha in face_monomials(ring.cp, k):
        val = evaluate_top(ring, {(alpha, idx): c for idx, c in gamma.items()})
        if val:
            terms[alpha] = val / prod(map(factorial, alpha))
    return MultiPoly._trusted(ring.cp.s, terms)


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
def face_monomials(cp: CharacteristicPair, xdeg: int) -> tuple[Expo, ...]:
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
        for expo in face_monomials(ring.cp, xdeg):
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
