"""Value records: construction, defaults, equality, hashing and immutability,
checked on every record class of the package."""

from fractions import Fraction as F

import pytest

from qtk import basealg as ba
from qtk import catalog as cat
from qtk import charpair as cpm
from qtk import invsys as iv
from qtk import ppbrion as pp
from qtk import srbundle as sr
from qtk.poly import MultiPoly
from qtk.record import Record


def cases():
    """(record class, every field in order, the defaults of the trailing fields)."""
    inst = cat.get("cp2")
    cp, base, chern = inst.cp, inst.base, inst.chern
    pot = iv.volume_potential(cp)
    pp_el = pp.PPElement(cp, 1, tuple(MultiPoly.linear_form([1, 0]) for _ in cp.max_cones))
    check = cpm.CheckResult("simplicial", True)
    return [
        (ba.ChernData, (chern.n, chern.images), {}),
        (cat.InstanceBundle, ("cp2", (), cp, base, chern, (F(1),) * 3), {"ample_h": None}),
        (cpm.CharacteristicPair, (cp.n, cp.ray_dirs, cp.lam, cp.max_cones), {}),
        (cpm.CheckResult, ("unimodular", False, "det 2"), {"detail": ""}),
        (cpm.ValidationReport, ((check,),), {}),
        (iv.Potential, (pot.var_names, pot.weights, pot.poly, pot.degree), {}),
        (pp.PPElement, (cp, pp_el.degree, pp_el.polys), {}),
        (sr.BundleRing, (cp, base, chern), {}),
    ]


CASES = cases()
CACHED_HASH = (cpm.CharacteristicPair, sr.BundleRing)


def test_cases_cover_every_record_class():
    assert len(CASES) == 8
    assert {case[0] for case in CASES} == set(Record.__subclasses__())


@pytest.mark.parametrize("cls, args, defaults", CASES, ids=[case[0].__name__ for case in CASES])
def test_record_behaviour(cls, args, defaults):
    fields = cls._fields
    assert tuple(cls.__annotations__) == fields  # the annotations document every field

    # positional and keyword construction agree; equal fields, equal records
    a, b = cls(*args), cls(**dict(zip(fields, args)))
    assert tuple(getattr(a, name) for name in fields) == args
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(args)
    if cls in CACHED_HASH:
        assert a._hash == hash(args)
    assert repr(a).startswith(f"{cls.__name__}({fields[0]}=")

    # a record of another class with the same fields is not equal
    twin = type(f"Other{cls.__name__}", (cls,), {"__slots__": ()})(*args)
    assert a != twin and twin != a

    # trailing fields take their defaults
    required = args[:len(args) - len(defaults)]
    short = cls(*required)
    assert {name: getattr(short, name) for name in defaults} == defaults

    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, fields[0])

    with pytest.raises(TypeError, match="missing argument"):
        cls(*args[:len(required) - 1])
    with pytest.raises(TypeError, match="at most"):
        cls(*args, None)
    with pytest.raises(TypeError, match="unexpected or repeated"):
        cls(*args, **{fields[0]: args[0]})
