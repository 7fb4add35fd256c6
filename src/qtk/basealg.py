"""Finite-dimensional graded-commutative base algebras with a top functional.

An algebra is given by named basis elements with degrees, a full structure
constant table, and the functional pairing classes against the fundamental
class (nonzero only in top degree).  Elements are sparse dicts mapping basis
index to Fraction.  ChernData is the degree-2 classifying map of a principal
torus bundle: one degree-2 element per standard character.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .charpair import CheckResult, ValidationReport
from .errors import DegreeMismatchError, MalformedInputError
from .exact import as_int, as_scalar, scalar_str
from .poly import MultiPoly

Element = dict[int, Fraction]


class GradedBaseAlgebra:
    """Graded-commutative algebra with unit, structure constants, and
    fundamental functional."""

    __slots__ = ("names", "degrees", "products", "fundamental", "top")

    def __init__(self, names: Sequence[str], degrees: Sequence[int],
                 products: Mapping[tuple[int, int], Element],
                 fundamental: Sequence):
        self.names = tuple(names)
        self.degrees = tuple(int(d) for d in degrees)
        if len(self.names) != len(self.degrees):
            raise MalformedInputError("need one degree per basis name")
        if len(set(self.names)) != len(self.names):
            raise MalformedInputError("duplicate basis names")
        if any(d < 0 for d in self.degrees):
            raise MalformedInputError("negative degree")
        m = len(self.names)
        table: dict[tuple[int, int], Element] = {}
        for (i, j), el in products.items():
            if not (0 <= i < m and 0 <= j < m):
                raise MalformedInputError("product index out of range")
            clean = {int(k): Fraction(c) for k, c in el.items() if Fraction(c)}
            if any(not 0 <= k < m for k in clean):
                raise MalformedInputError("product result index out of range")
            if clean:
                table[(i, j)] = clean
        self.products = table
        fund = [Fraction(as_scalar(x)) for x in fundamental]
        if len(fund) != m:
            raise MalformedInputError("need one fundamental value per basis element")
        self.fundamental = tuple(fund)
        self.top = max(self.degrees) if self.degrees else 0

    # -- element helpers ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.names)

    def unit_index(self) -> int:
        zeros = [i for i, d in enumerate(self.degrees) if d == 0]
        if len(zeros) != 1:
            raise MalformedInputError("degree-0 part is not one-dimensional")
        return zeros[0]

    def unit(self) -> Element:
        return {self.unit_index(): Fraction(1)}

    def element(self, name: str) -> Element:
        if name not in self.names:
            raise MalformedInputError(f"unknown basis element {name!r}")
        return {self.names.index(name): Fraction(1)}

    def indices_of_degree(self, d: int) -> list[int]:
        return [i for i, deg in enumerate(self.degrees) if deg == d]

    def basis_product(self, i: int, j: int) -> Element:
        return dict(self.products.get((i, j), {}))

    def mul(self, a: Element, b: Element) -> Element:
        out: Element = {}
        for i, ca in a.items():
            if not ca:
                continue
            for j, cb in b.items():
                c = ca * cb
                for k, ck in self.products.get((i, j), {}).items():
                    v = out.get(k, Fraction(0)) + c * ck
                    if v:
                        out[k] = v
                    else:
                        del out[k]
        return out

    def integrate(self, a: Element) -> Fraction:
        """Pairing with the fundamental class (degree-top component only)."""
        return sum((c * self.fundamental[i] for i, c in a.items()), Fraction(0))

    def degree_of(self, a: Element) -> int | None:
        """Degree of a homogeneous element; None for 0; raises if mixed."""
        degs = {self.degrees[i] for i, c in a.items() if c}
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeMismatchError("element is not homogeneous")
        return degs.pop()

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        checks = []
        # Unit: one-dimensional degree-0 part acting as identity.
        try:
            u = self.unit_index()
            ok = all(self.basis_product(u, j) == {j: Fraction(1)}
                     and self.basis_product(j, u) == {j: Fraction(1)}
                     for j in range(self.dim))
            checks.append(CheckResult("unit", ok, "" if ok else "degree-0 element is not a unit"))
        except MalformedInputError as exc:
            checks.append(CheckResult("unit", False, str(exc)))
        # Products must respect the grading and the functional must be top-degree.
        graded = True
        for (i, j), el in self.products.items():
            d = self.degrees[i] + self.degrees[j]
            if any(self.degrees[k] != d for k in el):
                graded = False
        checks.append(CheckResult("graded_products", graded,
                                  "" if graded else "a product lands in a wrong degree"))
        fund_ok = all(c == 0 for i, c in enumerate(self.fundamental)
                      if self.degrees[i] != self.top)
        checks.append(CheckResult("fundamental_top_degree", fund_ok,
                                  "" if fund_ok else "functional is nonzero below top degree"))
        # Graded commutativity with Koszul signs.
        comm = True
        for i in range(self.dim):
            for j in range(self.dim):
                sign = -1 if (self.degrees[i] * self.degrees[j]) % 2 else 1
                lhs = self.basis_product(i, j)
                rhs = {k: sign * c for k, c in self.basis_product(j, i).items()}
                if lhs != rhs:
                    comm = False
        checks.append(CheckResult("graded_commutative", comm,
                                  "" if comm else "Koszul-sign commutativity fails"))
        # Associativity on all basis triples.
        assoc = True
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.basis_product(i, j)
                for k in range(self.dim):
                    left = self.mul(ij, {k: Fraction(1)})
                    right = self.mul({i: Fraction(1)}, self.basis_product(j, k))
                    if left != right:
                        assoc = False
        checks.append(CheckResult("associative", assoc,
                                  "" if assoc else "associativity fails on a basis triple"))
        # Poincare pairing non-degenerate in every complementary degree pair.
        from . import exact
        pairing_ok = True
        detail = ""
        for d in sorted(set(self.degrees)):
            rows_idx = self.indices_of_degree(d)
            cols_idx = self.indices_of_degree(self.top - d)
            if len(rows_idx) != len(cols_idx):
                pairing_ok = False
                detail = f"dims {len(rows_idx)} vs {len(cols_idx)} in degrees {d},{self.top - d}"
                break
            rows = ({k: self.integrate(self.basis_product(i, j))
                     for k, j in enumerate(cols_idx)} for i in rows_idx)
            if exact.rank(rows, len(cols_idx)) != len(rows_idx):
                pairing_ok = False
                detail = f"degenerate pairing between degrees {d} and {self.top - d}"
                break
        checks.append(CheckResult("poincare_pairing", pairing_ok, detail))
        return ValidationReport(tuple(checks))

    def __repr__(self):
        return f"GradedBaseAlgebra({list(self.names)}, degrees={list(self.degrees)})"


def el_add(a: Element, b: Element) -> Element:
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, Fraction(0)) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def el_scale(a: Element, c) -> Element:
    c = Fraction(c)
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def el_str(alg: GradedBaseAlgebra, a: Element) -> str:
    if not a:
        return "0"
    parts = []
    for idx in sorted(a):
        c = a[idx]
        name = alg.names[idx]
        if name == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(name)
        else:
            parts.append(f"{c}*{name}")
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Constructors.

def make_point() -> GradedBaseAlgebra:
    """Cohomology of a point: one basis element in degree 0."""
    return GradedBaseAlgebra(["1"], [0], {(0, 0): {0: Fraction(1)}}, [Fraction(1)])


def make_cp(k: int, var: str = "t") -> GradedBaseAlgebra:
    """Truncated polynomial algebra on one degree-2 generator, top power k."""
    if k < 1:
        raise MalformedInputError("make_cp needs k >= 1")
    names = ["1"] + [var if p == 1 else f"{var}{p}" for p in range(1, k + 1)]
    degrees = [2 * p for p in range(k + 1)]
    products = {}
    for i in range(k + 1):
        for j in range(k + 1):
            if i + j <= k:
                products[(i, j)] = {i + j: Fraction(1)}
    fundamental = [Fraction(0)] * k + [Fraction(1)]
    return GradedBaseAlgebra(names, degrees, products, fundamental)


def tensor(a: GradedBaseAlgebra, b: GradedBaseAlgebra) -> GradedBaseAlgebra:
    """Graded tensor product with Koszul signs; basis names concatenate
    (the unit name '1' is dropped from products of names)."""

    def pair_name(na: str, nb: str) -> str:
        if na == "1":
            return nb
        if nb == "1":
            return na
        return na + nb

    names = []
    degrees = []
    index = {}
    for i in range(a.dim):
        for j in range(b.dim):
            name = pair_name(a.names[i], b.names[j])
            if name in index:
                raise MalformedInputError(f"tensor name collision: {name!r}")
            index[(i, j)] = len(names)
            names.append(name)
            degrees.append(a.degrees[i] + b.degrees[j])
    products: dict[tuple[int, int], Element] = {}
    for (i1, j1), p in index.items():
        for (i2, j2), q in index.items():
            sign = -1 if (b.degrees[j1] * a.degrees[i2]) % 2 else 1
            out: Element = {}
            for k1, c1 in a.basis_product(i1, i2).items():
                for k2, c2 in b.basis_product(j1, j2).items():
                    r = index[(k1, k2)]
                    v = out.get(r, Fraction(0)) + sign * c1 * c2
                    if v:
                        out[r] = v
                    else:
                        del out[r]
            if out:
                products[(p, q)] = out
    fundamental = [a.fundamental[i] * b.fundamental[j] for (i, j) in index]
    return GradedBaseAlgebra(names, degrees, products, fundamental)


# ---------------------------------------------------------------------------
# Chern data.

@dataclass(frozen=True)
class ChernData:
    """Images of the n standard characters: degree-2 base elements."""

    n: int
    images: tuple[tuple[tuple[int, Fraction], ...], ...]

    def image(self, a: int) -> Element:
        return dict(self.images[a])

    def evaluate(self, lam_vec: Sequence) -> Element:
        """c(lambda) for lambda given in standard coordinates."""
        out: Element = {}
        for a, coord in enumerate(lam_vec):
            coord = Fraction(coord)
            if not coord:
                continue
            for k, c in self.images[a]:
                v = out.get(k, Fraction(0)) + coord * c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return out


def make_chern(base: GradedBaseAlgebra, n: int, images: Sequence[Element]) -> ChernData:
    if len(images) != n:
        raise MalformedInputError("need one image per torus character")
    frozen = []
    for el in images:
        for idx in el:
            if base.degrees[idx] != 2:
                raise MalformedInputError("character image is not of degree 2")
        frozen.append(tuple(sorted((int(k), Fraction(c)) for k, c in el.items() if Fraction(c))))
    return ChernData(n=int(n), images=tuple(frozen))


def zero_chern(n: int) -> ChernData:
    return ChernData(n=int(n), images=tuple(() for _ in range(n)))


# ---------------------------------------------------------------------------
# Elements with polynomial coefficients (used to expand c(x)^i symbolically).

PolyElement = dict[int, MultiPoly]


def poly_elem_mul(alg: GradedBaseAlgebra, a: PolyElement, b: PolyElement) -> PolyElement:
    out: PolyElement = {}
    for i, pa in a.items():
        for j, pb in b.items():
            prod = pa * pb
            if not prod:
                continue
            for k, ck in alg.products.get((i, j), {}).items():
                cur = out.get(k)
                v = prod * ck if cur is None else cur + prod * ck
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
    return out


def chern_symbolic(alg: GradedBaseAlgebra, chern: ChernData) -> PolyElement:
    """c(x) with symbolic coordinates x_1..x_n: a base element whose
    coefficients are linear polynomials in n variables."""
    out: PolyElement = {}
    for a in range(chern.n):
        var = MultiPoly.variable(chern.n, a)
        for k, c in chern.images[a]:
            cur = out.get(k)
            term = var * c
            out[k] = term if cur is None else cur + term
    return {k: v for k, v in out.items() if v}


def chern_power_symbolic(alg: GradedBaseAlgebra, chern: ChernData, i: int) -> PolyElement:
    """c(x)^i as a base element with degree-i polynomial coefficients."""
    return dict(_chern_power(alg, chern, i))


@lru_cache(maxsize=None)
def _chern_power(alg: GradedBaseAlgebra, chern: ChernData,
                 i: int) -> tuple[tuple[int, MultiPoly], ...]:
    # Expanded once per algebra, Chern data and i: every class paired with
    # it (one per BKK sample) reuses the same power.
    result: PolyElement = {alg.unit_index(): MultiPoly.constant(chern.n, 1)}
    cx = chern_symbolic(alg, chern)
    for _ in range(i):
        result = poly_elem_mul(alg, result, cx)
    return tuple(result.items())


def f_gamma(alg: GradedBaseAlgebra, chern: ChernData, gamma: Element, i: int) -> MultiPoly:
    """The degree-i polynomial x -> <c(x)^i * gamma, [B]> on the character space."""
    if i < 0 or 2 * i > alg.top:
        raise DegreeMismatchError(f"need 0 <= 2*{i} <= {alg.top}")
    dg = alg.degree_of(gamma)
    if dg is not None and dg != alg.top - 2 * i:
        raise DegreeMismatchError(
            f"gamma has degree {dg}, expected {alg.top - 2 * i}")
    power = chern_power_symbolic(alg, chern, i)
    out = MultiPoly.zero(chern.n)
    for k, poly in power.items():
        paired = alg.mul({k: Fraction(1)}, gamma)
        val = alg.integrate(paired)
        if val:
            out = out + poly * val
    if out and not out.is_homogeneous(i):
        raise DegreeMismatchError("expansion is not homogeneous; invalid chern data")
    return out


# ---------------------------------------------------------------------------
# JSON interchange.

def to_json(alg: GradedBaseAlgebra) -> dict:
    return {
        "basis": [{"name": n, "deg": d} for n, d in zip(alg.names, alg.degrees)],
        "products": {
            f"{i},{j}": [[alg.names[k], scalar_str(c)] for k, c in sorted(el.items())]
            for (i, j), el in sorted(alg.products.items())
        },
        "fundamental": {
            alg.names[i]: scalar_str(c)
            for i, c in enumerate(alg.fundamental) if c
        },
    }


def from_json(data: dict) -> GradedBaseAlgebra:
    try:
        names = [str(b["name"]) for b in data["basis"]]
        degrees = [as_int(b["deg"]) for b in data["basis"]]
        products = {}
        for key, entries in data.get("products", {}).items():
            i, j = (int(p) for p in key.split(","))
            el = {}
            for name, coeff in entries:
                el[names.index(str(name))] = as_scalar(coeff)
            products[(i, j)] = el
        fundamental = [Fraction(0)] * len(names)
        for name, coeff in data.get("fundamental", {}).items():
            fundamental[names.index(str(name))] = as_scalar(coeff)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:  # e.g. a list for a dict
        raise MalformedInputError(f"bad base-algebra object: {exc}") from exc
    return GradedBaseAlgebra(names, degrees, products, fundamental)


def chern_to_json(base: GradedBaseAlgebra, chern: ChernData) -> dict:
    deg2 = base.indices_of_degree(2)
    images = []
    for a in range(chern.n):
        el = chern.image(a)
        images.append([scalar_str(el.get(i, Fraction(0))) for i in deg2])
    return {"n": chern.n, "images": images}


def chern_from_json(base: GradedBaseAlgebra, data: dict) -> ChernData:
    deg2 = base.indices_of_degree(2)
    try:
        n = as_int(data["n"])
        images = []
        for row in data["images"]:
            if len(row) != len(deg2):
                raise MalformedInputError(
                    "chern image length does not match the degree-2 basis")
            images.append({idx: as_scalar(v) for idx, v in zip(deg2, row)})
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad chern object: {exc}") from exc
    return make_chern(base, n, images)
