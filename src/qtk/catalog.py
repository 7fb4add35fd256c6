"""Built-in example instances: characteristic pair + base algebra + chern data.

`CATALOG` is the one table of the instance families: each name maps to its
description, its integer parameters and a builder, so a new family is one
entry.  Names accept query-style integer parameters, e.g. "hirzebruch?a=2";
a parameter value is an optional sign and ASCII digits 0-9, read by
`exact.ascii_int`.  Toric entries set their lattice vectors equal to the ray
directions; the two "generalized" entries (the flipped projective line and
the twisted plane) exercise nontrivial orientation signs.  Entries with an
`ample_h` admit an honest simple polytope there, which the tests use for a
triangulation volume oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import basealg as ba
from . import charpair as cpm
from .errors import MalformedInputError
from .exact import ascii_int
from .record import Record
from .srbundle import BundleRing


class InstanceBundle(Record):
    """A named, validated-on-demand triple defining a bundle ring."""

    __slots__ = ("name", "params", "cp", "base", "chern", "ample_h")
    _defaults = {"ample_h": None}
    name: str
    params: tuple[tuple[str, int], ...]
    cp: cpm.CharacteristicPair
    base: ba.GradedBaseAlgebra
    chern: ba.ChernData
    ample_h: tuple[Fraction, ...] | None

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


def _over_point(cp, ample=None):
    """A fan over a point; `ample` is a support vector with a simple polytope."""
    ample_h = tuple(Fraction(v) for v in ample) if ample else None
    return cp, ba.make_point(), ba.zero_chern(cp.n), ample_h


def _bundle(cp, base, images):
    """The fan over `base`, its torus characters sent to the classes `images`."""
    return cp, base, ba.make_chern(base, cp.n, images), None


def _cp1xcp1_bundle():
    base = ba.tensor(ba.make_cp(1, "u"), ba.make_cp(1, "v"))
    return _bundle(_pair_cp1(), base, [ba.el_add(base.element("u"), base.element("v"))])


# name -> (description, parameters, build).  The parameters map each integer
# parameter to the values all_instances takes, its default first; build takes
# them as keywords and returns (cp, base, chern, ample_h).
CATALOG = {
    "cp1": (
        "projective line over a point", {},
        lambda: _over_point(_pair_cp1(), (1, 1))),
    "cp2": (
        "projective plane over a point", {},
        lambda: _over_point(_pair_cp2(), (1, 1, 1))),
    "cp3": (
        "projective 3-space over a point", {},
        lambda: _over_point(cpm.toric_pair(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
            [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]), (1, 1, 1, 1))),
    "cp1xcp1": (
        "product of two projective lines over a point", {},
        lambda: _over_point(cpm.toric_pair(
            [(1, 0), (-1, 0), (0, 1), (0, -1)],
            [(0, 2), (0, 3), (1, 2), (1, 3)]), (1, 1, 1, 1))),
    "hirzebruch-toric": (
        "Hirzebruch surface as a 2-dimensional fan over a point (m)", {"m": (1, 2)},
        lambda m: _over_point(cpm.toric_pair(
            [(1, 0), (0, 1), (-1, m), (0, -1)],
            [(0, 1), (1, 2), (2, 3), (0, 3)]), (1, 1, 1, 1))),
    # the projective line's fan, both lattice vectors pointing the same way
    "cp1-flip": (
        "1-dimensional fan with reversed orientation data", {},
        lambda: _over_point(cpm.make_pair(
            1, [(1,), (-1,)], [(1,), (1,)], [(0,), (1,)]))),
    # the plane's fan with the third lattice vector replaced; two cones get sign -1
    "cp2-twist": (
        "cp2 fan with twisted lattice vectors (two negative cone signs)", {},
        lambda: _over_point(cpm.make_pair(
            2, [(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (1, 1)],
            [(0, 1), (1, 2), (0, 2)]))),
    "hirzebruch": (
        "projective-line bundle over the projective line (a)", {"a": (1, 0, 2, 3)},
        lambda a: _bundle(_pair_cp1(), ba.make_cp(1), [{1: a}])),
    "cp1-bundle-over-cp2": (
        "projective-line bundle over the projective plane (a)", {"a": (1, 2)},
        lambda a: _bundle(_pair_cp1(), ba.make_cp(2), [{1: a}])),
    "cp1xcp1-bundle": (
        "projective-line bundle over a product base", {},
        _cp1xcp1_bundle),
    "cp2-bundle-over-cp1": (
        "projective-plane bundle over the projective line (a, b)", {"a": (1,), "b": (0,)},
        lambda a, b: _bundle(_pair_cp2(), ba.make_cp(1), [{1: a}, {1: b}])),
}

def parse_spec(spec: str) -> tuple[str, dict[str, int]]:
    """Split 'name?k=v,k2=v2' into the name and its integer parameters; a
    '?' must be followed by parameters, each with a name."""
    if spec.startswith("catalog:"):
        spec = spec[len("catalog:"):]
    name, question, query = spec.partition("?")
    params: dict[str, int] = {}
    if question:
        for piece in query.replace("&", ",").split(","):
            key, sep, value = piece.partition("=")
            key = key.strip()
            if not sep or not key:
                raise MalformedInputError(f"bad parameter {piece!r}")
            if key in params:
                raise MalformedInputError(f"parameter {key!r} given twice")
            try:
                params[key] = ascii_int(value)
            except ValueError as exc:
                raise MalformedInputError(f"parameter {key!r} must be an integer") from exc
    return name.strip(), params


def get(spec: str) -> InstanceBundle:
    """Look up a catalog instance by name with optional parameters."""
    name, given = parse_spec(spec)
    if name not in CATALOG:
        raise MalformedInputError(f"unknown catalog instance {name!r}")
    declared = CATALOG[name][1]
    unknown = given.keys() - declared.keys()
    if unknown:
        raise MalformedInputError(
            f"unknown parameter(s) {', '.join(sorted(unknown))} for {name!r}")
    return _instance(name, {key: given.get(key, values[0])
                            for key, values in declared.items()})


def _instance(name: str, params: dict[str, int]) -> InstanceBundle:
    """The entry `name` built at `params`, every declared parameter given."""
    return InstanceBundle(name, tuple(params.items()), *CATALOG[name][2](**params))


def all_instances() -> list[InstanceBundle]:
    """Every catalog entry at every combination of its parameters' values,
    each taken in increasing order."""
    return [_instance(name, dict(zip(declared, values)))
            for name, (_, declared, _) in CATALOG.items()
            for values in product(*map(sorted, declared.values()))]
