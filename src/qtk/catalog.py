"""Built-in example instances: characteristic pair + base algebra + chern data.

Names accept query-style integer parameters, e.g. "hirzebruch?a=2".  Toric
entries set their lattice vectors equal to the ray directions; the two
"generalized" entries (cp1-flip, cp2-twist) exercise nontrivial orientation
signs.  Entries flagged convex admit an honest simple polytope at `ample_h`,
which the tests use for a triangulation volume oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import basealg as ba
from . import charpair as cpm
from .errors import MalformedInputError
from .srbundle import BundleRing


@dataclass(frozen=True)
class InstanceBundle:
    """A named, validated-on-demand triple defining a bundle ring."""

    name: str
    params: tuple[tuple[str, int], ...]
    cp: cpm.CharacteristicPair
    base: ba.GradedBaseAlgebra
    chern: ba.ChernData
    convex: bool = False
    ample_h: tuple[Fraction, ...] | None = None
    expected: dict = field(default_factory=dict, compare=False)

    @property
    def label(self) -> str:
        if not self.params:
            return self.name
        args = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}?{args}"

    def ring(self) -> BundleRing:
        return BundleRing(self.cp, self.base, self.chern)


def _pair_cp1():
    return cpm.make_pair(1, [(1,), (-1,)], [(1,), (-1,)], [(0,), (1,)])


def _pair_cp2():
    return cpm.toric_pair([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def _pair_cp3():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return cpm.toric_pair(rays, cones)


def _pair_cp1xcp1():
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    cones = [(0, 2), (0, 3), (1, 2), (1, 3)]
    return cpm.toric_pair(rays, cones)


def _pair_hirzebruch_toric(m: int):
    rays = [(1, 0), (0, 1), (-1, m), (0, -1)]
    cones = [(0, 1), (1, 2), (2, 3), (0, 3)]
    return cpm.toric_pair(rays, cones)


def _pair_cp1_flip():
    # same fan as cp1 but both lattice vectors point the same way
    return cpm.make_pair(1, [(1,), (-1,)], [(1,), (1,)], [(0,), (1,)])


def _pair_cp2_twist():
    # cp2 fan with the third lattice vector replaced; two cones get sign -1
    return cpm.make_pair(2, [(1, 0), (0, 1), (-1, -1)],
                         [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)])


def _point_instance(name, params, cp, convex, ample, betti):
    return InstanceBundle(
        name=name, params=params, cp=cp, base=ba.make_point(),
        chern=ba.zero_chern(cp.n), convex=convex,
        ample_h=tuple(Fraction(v) for v in ample) if ample else None,
        expected={"betti": betti})


def _build(name: str, params: dict[str, int]) -> InstanceBundle:
    if name == "cp1":
        return _point_instance("cp1", (), _pair_cp1(), True, (1, 1), [1, 0, 1])
    if name == "cp2":
        return _point_instance("cp2", (), _pair_cp2(), True, (1, 1, 1), [1, 0, 1, 0, 1])
    if name == "cp3":
        return _point_instance("cp3", (), _pair_cp3(), True, (1, 1, 1, 1),
                               [1, 0, 1, 0, 1, 0, 1])
    if name == "cp1xcp1":
        return _point_instance("cp1xcp1", (), _pair_cp1xcp1(), True, (1, 1, 1, 1),
                               [1, 0, 2, 0, 1])
    if name == "hirzebruch-toric":
        m = params.pop("m", 1)
        return _point_instance("hirzebruch-toric", (("m", m),),
                               _pair_hirzebruch_toric(m), True, (1, 1, 1, 1),
                               [1, 0, 2, 0, 1])
    if name == "cp1-flip":
        return _point_instance("cp1-flip", (), _pair_cp1_flip(), False, None, [1, 0, 1])
    if name == "cp2-twist":
        return _point_instance("cp2-twist", (), _pair_cp2_twist(), False, None,
                               [1, 0, 1, 0, 1])
    if name == "hirzebruch":
        a = params.pop("a", 1)
        base = ba.make_cp(1)
        chern = ba.make_chern(base, 1, [{1: Fraction(a)}])
        return InstanceBundle(
            name="hirzebruch", params=(("a", a),), cp=_pair_cp1(), base=base,
            chern=chern, expected={"betti": [1, 0, 2, 0, 1]})
    if name == "cp1-bundle-over-cp2":
        a = params.pop("a", 1)
        base = ba.make_cp(2)
        chern = ba.make_chern(base, 1, [{1: Fraction(a)}])
        return InstanceBundle(
            name="cp1-bundle-over-cp2", params=(("a", a),), cp=_pair_cp1(),
            base=base, chern=chern, expected={"betti": [1, 0, 2, 0, 2, 0, 1]})
    if name == "cp1xcp1-bundle":
        base = ba.tensor(ba.make_cp(1, "u"), ba.make_cp(1, "v"))
        image = ba.el_add(base.element("u"), base.element("v"))
        chern = ba.make_chern(base, 1, [image])
        return InstanceBundle(
            name="cp1xcp1-bundle", params=(), cp=_pair_cp1(), base=base,
            chern=chern, expected={"betti": [1, 0, 3, 0, 3, 0, 1]})
    if name == "cp2-bundle-over-cp1":
        a = params.pop("a", 1)
        b = params.pop("b", 0)
        base = ba.make_cp(1)
        chern = ba.make_chern(base, 2, [{1: Fraction(a)}, {1: Fraction(b)}])
        return InstanceBundle(
            name="cp2-bundle-over-cp1", params=(("a", a), ("b", b)),
            cp=_pair_cp2(), base=base, chern=chern,
            expected={"betti": [1, 0, 2, 0, 2, 0, 1]})
    raise MalformedInputError(f"unknown catalog instance {name!r}")


CATALOG_NAMES = [
    "cp1", "cp2", "cp3", "cp1xcp1", "hirzebruch-toric", "cp1-flip",
    "cp2-twist", "hirzebruch", "cp1-bundle-over-cp2", "cp1xcp1-bundle",
    "cp2-bundle-over-cp1",
]

DESCRIPTIONS = {
    "cp1": "projective line over a point",
    "cp2": "projective plane over a point",
    "cp3": "projective 3-space over a point",
    "cp1xcp1": "product of two projective lines over a point",
    "hirzebruch-toric": "Hirzebruch surface as a 2-dimensional fan over a point (m)",
    "cp1-flip": "1-dimensional fan with reversed orientation data",
    "cp2-twist": "cp2 fan with twisted lattice vectors (two negative cone signs)",
    "hirzebruch": "projective-line bundle over the projective line (a)",
    "cp1-bundle-over-cp2": "projective-line bundle over the projective plane (a)",
    "cp1xcp1-bundle": "projective-line bundle over a product base",
    "cp2-bundle-over-cp1": "projective-plane bundle over the projective line (a, b)",
}


def parse_spec(spec: str) -> tuple[str, dict[str, int]]:
    """Split 'name?k=v,k2=v2' into the name and its integer parameters."""
    if spec.startswith("catalog:"):
        spec = spec[len("catalog:"):]
    name, _, query = spec.partition("?")
    params: dict[str, int] = {}
    if query:
        for piece in query.replace("&", ",").split(","):
            key, sep, value = piece.partition("=")
            if not sep:
                raise MalformedInputError(f"bad parameter {piece!r}")
            key = key.strip()
            if key in params:
                raise MalformedInputError(f"parameter {key!r} given twice")
            try:
                params[key] = int(value)
            except ValueError as exc:
                raise MalformedInputError(f"parameter {key!r} must be an integer") from exc
    return name.strip(), params


def get(spec: str) -> InstanceBundle:
    """Look up a catalog instance by name with optional parameters."""
    name, params = parse_spec(spec)
    inst = _build(name, params)
    # _build pops every parameter it reads; anything left is unknown.
    if params:
        raise MalformedInputError(
            f"unknown parameter(s) {', '.join(sorted(params))} for {name!r}")
    return inst


def all_instances() -> list[InstanceBundle]:
    """Every catalog entry, with a small spread of parameters."""
    out = []
    for name in CATALOG_NAMES:
        if name == "hirzebruch":
            out.extend(get(f"hirzebruch?a={a}") for a in (0, 1, 2, 3))
        elif name == "hirzebruch-toric":
            out.extend(get(f"hirzebruch-toric?m={m}") for m in (1, 2))
        elif name == "cp1-bundle-over-cp2":
            out.extend(get(f"cp1-bundle-over-cp2?a={a}") for a in (1, 2))
        else:
            out.append(get(name))
    return out


def default_instances() -> list[InstanceBundle]:
    """One representative per catalog name (default parameters)."""
    return [get(name) for name in CATALOG_NAMES]
