"""Shared fixtures: the standard pairs and rings used across the suite."""

import sys
from fractions import Fraction as F

import pytest

from qtk import basealg as ba
from qtk import catalog as cat


@pytest.fixture(scope="session")
def cp1():
    return cat.get("cp1").cp


@pytest.fixture(scope="session")
def cp2():
    return cat.get("cp2").cp


@pytest.fixture(scope="session")
def cp3():
    return cat.get("cp3").cp


@pytest.fixture(scope="session")
def point_ring_cp2():
    return cat.get("cp2").ring()


@pytest.fixture(scope="session")
def point_ring_cp1():
    return cat.get("cp1").ring()


def hirzebruch_ring(a):
    return cat.get(f"hirzebruch?a={a}").ring()


def clear_caches():
    """Empty every lru_cache in qtk, leaving it as a fresh process has it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("qtk."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture(scope="session")
def all_instances():
    return cat.all_instances()


@pytest.fixture(scope="session")
def base_cp1():
    return ba.make_cp(1)


@pytest.fixture(scope="session")
def base_cp2():
    return ba.make_cp(2)


def two_character_cases():
    """(label, algebra, Chern data) with two characters and i up to 2, where
    i!/alpha! is not 1: no catalog ring has both."""
    cp2 = ba.make_cp(2)
    uv = ba.tensor(ba.make_cp(1, "u"), ba.make_cp(1, "v"))
    return [("cp2-base", cp2, ba.make_chern(cp2, 2, [{1: F(1)}, {1: F(-2)}])),
            ("cp1xcp1-base", uv, ba.make_chern(uv, 2, [uv.element("u"),
                                                       ba.el_add(uv.element("u"),
                                                                 uv.element("v"))]))]


def exterior_algebra(gen="e"):
    """The exterior algebra on one degree-1 class: a base with odd classes."""
    return ba.GradedBaseAlgebra(["1", gen], [0, 1],
                                {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)}},
                                [0, 1])
