"""Shared fixtures: the standard pairs and rings used across the suite."""

import sys

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
