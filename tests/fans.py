"""Generated smooth complete fans, written as bundle files over a point or
over a projective space.

A fan is (n, rays, cones): integer ray directions, which are also the
lattice vectors, except where a twist sets the last lattice vector of CP^n
to a vector of signs, and sorted 0-based cones.  The constructions are the
standard ones (CP^n, products, the stellar subdivision of a maximal cone,
Bott towers) and read nothing from qtk, so a test can compare qtk's answer
on them with what the construction predicts.

GOLDEN names the fans over a point, and BUNDLES the fans over CP^1 and
CP^2 with nonzero Chern data, whose `qtk brion`, `qtk validate` and
`qtk betti` reports are pinned under tests/golden/brion-fans, each beside
the bundle file it was computed from.  The BUNDLES are the pinned cases of a
fibre of dimension above 2 over a base of positive dimension.  Each report
is run from that directory on the bundle file's bare name, which the
validate report echoes.  Run
`PYTHONPATH=src python tests/fans.py` to write the bundle file and every
report of every fan; the tests check that the bundle files still equal
what this module writes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from itertools import combinations, product

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "brion-fans")


def _unit(n, i, sign=1):
    return tuple(sign if k == i else 0 for k in range(n))


def cp_fan(n, twist=None):
    """CP^n: rays e_1..e_n and -(e_1+..+e_n), every n of them a cone.  A
    twist is a vector of n signs for the last lattice vector; each cone
    stays unimodular because the unit vector it drops meets an entry +-1."""
    rays = tuple(_unit(n, i) for i in range(n)) + ((-1,) * n,)
    lam = rays[:n] + ((tuple(twist),) if twist else rays[n:])
    return n, rays, lam, tuple(combinations(range(n + 1), n))


def product_fan(a, b):
    """Rays of each factor padded by zeros; cones are unions."""
    (na, rays_a, lam_a, cones_a), (nb, rays_b, lam_b, cones_b) = a, b
    pad = lambda v, before, after: (0,) * before + tuple(v) + (0,) * after
    rays = tuple(pad(v, 0, nb) for v in rays_a) + tuple(pad(v, na, 0) for v in rays_b)
    lam = tuple(pad(v, 0, nb) for v in lam_a) + tuple(pad(v, na, 0) for v in lam_b)
    s = len(rays_a)
    return na + nb, rays, lam, tuple(sorted(ca + tuple(s + j for j in cb)
                                            for ca in cones_a for cb in cones_b))


def blow_up(fan, cone_index):
    """Stellar subdivision of one maximal cone at the sum of its rays, the
    new lattice vector being the sum of the cone's lattice vectors."""
    n, rays, lam, cones = fan
    sigma = cones[cone_index]
    new = len(rays)
    summed = lambda vs: tuple(sum(vs[i][r] for i in sigma) for r in range(n))
    kept = [c for k, c in enumerate(cones) if k != cone_index]
    added = [tuple(sorted([i for i in sigma if i != drop] + [new])) for drop in sigma]
    return n, rays + (summed(rays),), lam + (summed(lam),), tuple(sorted(kept + added))


def bott_tower(n, entries):
    """n-stage Bott tower: rays e_i and -e_i + sum_{j>i} a_ij e_j, one of
    each pair in every cone, so every cone is triangular with diagonal +-1."""
    rays = [_unit(n, i) for i in range(n)]
    for i in range(n):
        rays.append(tuple(-1 if j == i else entries.get((i, j), 0) if j > i else 0
                          for j in range(n)))
    cones = tuple(sorted(tuple(sorted(i + n * pick for i, pick in enumerate(picks)))
                         for picks in product((0, 1), repeat=n)))
    return n, tuple(rays), tuple(rays), cones


def bundle(fan, m=0, images=None) -> dict:
    """The bundle file of the fan over CP^m, whose cohomology has the basis
    1, t, t2, .., tm with tm integrating to 1 (m = 0 is a point); the a-th
    standard character maps to images[a] * t."""
    n, rays, lam, cones = fan
    names = ["1"] + ["t" if p == 1 else f"t{p}" for p in range(1, m + 1)]
    return {
        "charpair": {"n": n, "rays": [[str(x) for x in v] for v in rays],
                     "lambda": [list(v) for v in lam],
                     "max_cones": [[i + 1 for i in c] for c in cones]},
        "base": {"basis": [{"name": name, "deg": 2 * p} for p, name in enumerate(names)],
                 "products": {f"{i},{j}": [[names[i + j], "1"]]
                              for i in range(m + 1) for j in range(m + 1 - i)},
                 "fundamental": {names[m]: "1"}},
        "chern": {"n": n, "images": [[str(c)] for c in images] if m else [[]] * n},
    }


def bundle_text(fan, m=0, images=None) -> str:
    return json.dumps(bundle(fan, m, images), sort_keys=True) + "\n"


GOLDEN = {
    "cp4-twist": cp_fan(4, (1, -1, 1, -1)),
    "cp2xcp2": product_fan(cp_fan(2), cp_fan(2)),
    "cp4-blowup": blow_up(cp_fan(4), 0),
    "bott4": bott_tower(4, {(0, 1): 1, (0, 2): -1, (0, 3): 2, (1, 2): 1, (1, 3): -1,
                            (2, 3): 1}),
    "cp5": cp_fan(5),
}

# name -> (fan, m, images): the bundle arguments of a fan over CP^m.
BUNDLES = {
    "bott4-over-cp1": (GOLDEN["bott4"], 1, (1, -1, 2, 0)),
    "cp4-over-cp2": (cp_fan(4), 2, (1, -1, 2, 0)),
    "cp2xcp2-over-cp2": (GOLDEN["cp2xcp2"], 2, (2, 0, -1, 1)),
}

# Every pinned bundle file: name -> the arguments of bundle_text.
PINNED = {**{name: (fan,) for name, fan in GOLDEN.items()}, **BUNDLES}


def bundle_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, name + ".bundle.json")


# The pinned commands; a brion report is <name>.json, any other <name>.<command>.json.
COMMANDS = ("brion", "validate", "betti")


def report_path(name: str, command: str = "brion") -> str:
    suffix = ".json" if command == "brion" else f".{command}.json"
    return os.path.join(GOLDEN_DIR, name + suffix)


def write_golden() -> None:
    """Write every PINNED bundle file and each of its COMMANDS reports."""
    from qtk.cli import main

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, args in PINNED.items():
        with open(bundle_path(name), "w", encoding="utf-8") as fh:
            fh.write(bundle_text(*args))
        for command in COMMANDS:
            out = io.StringIO()
            with contextlib.chdir(GOLDEN_DIR), contextlib.redirect_stdout(out):
                if main([command, os.path.basename(bundle_path(name))]) != 0:
                    raise SystemExit(f"qtk {command} failed on {name}")
            with open(report_path(name, command), "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())


if __name__ == "__main__":
    write_golden()
