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

`betti` and `quotient_algebra` share one walk up the degrees
(`_relation_spaces`) that inserts the relations theta_a = c(e_a) -
sum_i lam_i[a] x_i in n stages, theta_a only times a complement of
(theta_1..theta_{a-1}) two degrees down: that is an ideal, so the spans are
those of the full relation set, and on a valid pair every row raises the
rank.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, prod
from typing import Iterable, Sequence

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


def reduce(ring: BundleRing, el: BundleElement) -> BundleElement:
    """Normal form: only square-free monomials supported on faces survive.

    One factor of x_j is eliminated through the canonical dual character
    `dual_character(cp, face, j)`.  Any valid character would yield the
    same pairings (not necessarily the same terms).  Nothing here is cached.
    """
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
        chi = dual_character(cp, supp, j)
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
    compositions: dict[int, list[list[int]]] = {}
    for face in faces(cp):
        t = len(face)
        if t > xdeg:
            break  # faces come by size, so every later one is larger too
        if t not in compositions:
            # compositions of xdeg into t positive parts, once per face size
            compositions[t] = [[b - a for a, b in zip((0,) + cut, cut + (xdeg,))]
                               for cut in combinations(range(1, xdeg), t - 1)]
        for parts in compositions[t]:
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


def relation_vectors(ring: BundleRing, d: int,
                     positions: Sequence[Iterable[int]] | None = None
                     ) -> tuple[list[tuple[Expo, int]], list[list[dict]]]:
    """Spanning basis of degree d and, per standard character a, sparse rows
    of relations in it.

    rows[a] holds theta_a = c(e_a) - sum_i lam_i[a] x_i times each
    degree-(d-2) basis term b x^expo at the positions positions[a] of
    graded_basis(ring, d - 2), every position when positions is None: the
    row c(e_a) b x^expo minus lam_i[a] at each face term b x^(expo + e_i).
    """
    basis = graded_basis(ring, d)
    cp = ring.cp
    rows: list[list[dict]] = [[] for _ in range(cp.n)]
    if d < 2:
        return basis, rows
    index = {pair: i for i, pair in enumerate(basis)}
    below = graded_basis(ring, d - 2)
    for a, stage in enumerate(rows):
        image, products = ring.chern.image(a), {}
        lam = [(i, -cp.lam[i][a]) for i in range(cp.s) if cp.lam[i][a]]
        for p in range(len(below)) if positions is None else positions[a]:
            expo, b = below[p]
            if b not in products:
                # Integral entries as ints, so RowSpace clears no denominator.
                products[b] = [(k, exact.int_if_integral(c))
                               for k, c in ring.base.mul(image, {b: 1}).items()]
            row = {index[expo, k]: c for k, c in products[b]}
            for i, v in lam:
                col = index.get((_bump(expo, i), b))
                if col is not None:
                    row[col] = v
            stage.append(row)
    return basis, rows


def _relation_spaces(ring: BundleRing, last: int):
    """Yield (basis, relation span) for each degree d = 0..last.

    Degree d's relations enter in n stages, stage a inserting theta_a times
    the unit vectors at the free columns that stages 1..a-1 left in degree
    d-2.  Those complement (theta_1..theta_{a-1})_{d-2}, and theta_a times
    that ideal lies in the ideal, so each stage spans theta_a times all of
    degree d-2 modulo the earlier stages: the span, and with it the pivots,
    free columns and normal forms, is the full relation set's.  On a valid
    pair the theta_a are a regular sequence, so every inserted row raises
    the rank.  Only the free columns after each stage are kept, for two
    degrees.
    """
    free: dict[int, list] = {}
    for d in range(last + 1):
        basis, rows = relation_vectors(ring, d, free.pop(d - 2, None))
        span = exact.RowSpace(len(basis))
        # after[a]: the free columns after stages 1..a, which stage a + 1
        # reads two degrees up.
        after = [range(len(basis))]
        for stage in rows:
            for row in stage:
                span.insert(row)
            after.append(span.free_columns())
        free[d] = after
        yield basis, span


def betti(ring: BundleRing) -> list[int]:
    """Graded dimensions of the quotient in degrees 0..(base top + 2n).

    The relations come staged by character (`_relation_spaces`): stage a
    multiplies theta_a only into a complement of (theta_1..theta_{a-1}),
    which loses nothing since that is an ideal.
    """
    return [len(basis) - span.rank
            for basis, span in _relation_spaces(ring, ring.total_degree)]


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
    quotient vanishes above top by induction.  All degrees come from the
    staged walk of `betti`, whose spans are the full relation set's because
    (theta_1..theta_{a-1}) is an ideal; so are the free columns and normal
    forms, which depend only on the span.
    """
    top = ring.total_degree
    per_degree: dict[int, dict] = {}
    names: list[str] = []
    degrees: list[int] = []
    rep_elements: list[BundleElement] = []
    for d, (basis, span) in enumerate(_relation_spaces(ring, top + 2)):
        if d > top:
            if span.rank != len(basis):
                raise MalformedInputError("quotient does not vanish above top degree")
            continue
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
