"""Seeded instance generators that write qtk bundle JSON files.

Everything here is independent of qtk: fans are plain tuples, base algebras
are truncated polynomial rings written straight into the CLI's bundle-file
format (see README "File formats").  A fan is (n, rays, lam, cones) with
integer ray directions, integer lattice vectors and 0-based sorted cones.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, product


@dataclass(frozen=True)
class Fan:
    n: int
    rays: tuple[tuple[int, ...], ...]
    lam: tuple[tuple[int, ...], ...]
    cones: tuple[tuple[int, ...], ...]


def _unit(n: int, i: int, sign: int = 1) -> tuple[int, ...]:
    return tuple(sign if k == i else 0 for k in range(n))


def cp_fan(n: int, twist: tuple[int, ...] | None = None) -> Fan:
    """CP^n: rays e_1..e_n and -(e_1+..+e_n); every n-subset is a cone.

    `twist` replaces the last lattice vector by a vector of signs; each cone
    stays unimodular because the dropped unit vector meets an entry +-1.
    """
    rays = tuple(_unit(n, i) for i in range(n)) + ((-1,) * n,)
    last = tuple(twist) if twist is not None else (-1,) * n
    if len(last) != n or any(abs(v) != 1 for v in last):
        raise ValueError("twist must be a vector of n signs")
    lam = rays[:n] + (last,)
    cones = tuple(combinations(range(n + 1), n))
    return Fan(n, rays, lam, cones)


def product_fan(a: Fan, b: Fan) -> Fan:
    """Product fan: rays of each factor padded by zeros, cones are unions."""
    pad_a = lambda v: tuple(v) + (0,) * b.n
    pad_b = lambda v: (0,) * a.n + tuple(v)
    rays = tuple(pad_a(v) for v in a.rays) + tuple(pad_b(v) for v in b.rays)
    lam = tuple(pad_a(v) for v in a.lam) + tuple(pad_b(v) for v in b.lam)
    s = len(a.rays)
    cones = tuple(sorted(ca + tuple(s + j for j in cb)
                         for ca in a.cones for cb in b.cones))
    return Fan(a.n + b.n, rays, lam, cones)


def blow_up(fan: Fan, cone_index: int) -> Fan:
    """Stellar subdivision of one maximal cone at the sum of its rays.

    The new lattice vector is the sum of the cone's lattice vectors, so each
    new cone keeps the determinant of the cone it came from.
    """
    sigma = fan.cones[cone_index]
    new = len(fan.rays)
    ray = tuple(sum(fan.rays[i][r] for i in sigma) for r in range(fan.n))
    lv = tuple(sum(fan.lam[i][r] for i in sigma) for r in range(fan.n))
    cones = [c for k, c in enumerate(fan.cones) if k != cone_index]
    for drop in sigma:
        cones.append(tuple(sorted([i for i in sigma if i != drop] + [new])))
    return Fan(fan.n, fan.rays + (ray,), fan.lam + (lv,), tuple(sorted(cones)))


def bott_tower(entries: dict[tuple[int, int], int], n: int) -> Fan:
    """n-stage Bott tower: rays e_i and -e_i + sum_{j>i} a_ij e_j.

    Every maximal cone picks e_i or its partner for each i; the chosen rows
    form a triangular matrix with diagonal +-1, hence unimodular.
    """
    rays = [_unit(n, i) for i in range(n)]
    for i in range(n):
        v = list(_unit(n, i, -1))
        for j in range(i + 1, n):
            v[j] = entries.get((i, j), 0)
        rays.append(tuple(v))
    cones = tuple(sorted(tuple(sorted(i + n * pick for i, pick in enumerate(picks)))
                         for picks in product((0, 1), repeat=n)))
    return Fan(n, tuple(rays), tuple(rays), cones)


# ---------------------------------------------------------------------------
# Combinatorics used by the oracles.

def face_counts(fan: Fan) -> list[int]:
    """f_{-1}, f_0, ..., f_{n-1}: the number of faces with k rays, k = 0..n."""
    seen = set()
    for cone in fan.cones:
        for k in range(len(cone) + 1):
            seen.update(combinations(cone, k))
    counts = [0] * (fan.n + 1)
    for face in seen:
        counts[len(face)] += 1
    return counts


# ---------------------------------------------------------------------------
# Base algebras and bundle JSON.

def cp_base_json(m: int) -> dict:
    """Cohomology of CP^m: basis 1, t, t2, .., tm with t^m integrating to 1
    (m = 0 is a point)."""
    names = ["1"] + ["t" if p == 1 else f"t{p}" for p in range(1, m + 1)]
    products = {f"{i},{j}": [[names[i + j], "1"]]
                for i in range(m + 1) for j in range(m + 1) if i + j <= m}
    return {"basis": [{"name": nm, "deg": 2 * p} for p, nm in enumerate(names)],
            "products": products, "fundamental": {names[m]: "1"}}


def cp_poincare(m: int) -> list[int]:
    """Betti numbers of CP^m in degrees 0..2m."""
    return [int(d % 2 == 0) for d in range(2 * m + 1)]


def charpair_json(fan: Fan) -> dict:
    return {
        "n": fan.n,
        "rays": [[str(x) for x in v] for v in fan.rays],
        "lambda": [list(v) for v in fan.lam],
        "max_cones": [[i + 1 for i in c] for c in fan.cones],
    }


def bundle_json(fan: Fan, base_dim: int = 0, chern: list[int] | None = None) -> dict:
    """Bundle file over CP^base_dim; `chern[a]` is the multiple of t that
    the a-th standard character maps to (ignored over a point)."""
    if base_dim == 0:
        images = [[] for _ in range(fan.n)]
    else:
        images = [[str(c)] for c in (chern or [0] * fan.n)]
    return {"charpair": charpair_json(fan), "base": cp_base_json(base_dim),
            "chern": {"n": fan.n, "images": images}}


def write_bundle(path: str, content: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(content, fh, sort_keys=True)


# ---------------------------------------------------------------------------
# Seeded choices.  A seed changes entries, never shapes.

def random_twist(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice((-1, 1)) for _ in range(n))


def random_bott_entries(rng: random.Random, n: int) -> dict[tuple[int, int], int]:
    # Signs only: every seed gives the same sparsity pattern and entry sizes.
    return {(i, j): rng.choice((-1, 1)) for i in range(n) for j in range(i + 1, n)}


def projective_bundle(k: int, m: int, twists: list[int]) -> dict:
    """P(L_0 + ... + L_k) over CP^m with c1(L_a) - c1(L_0) = twists[a-1] * t."""
    if len(twists) != k:
        raise ValueError("need one twist per character")
    return bundle_json(cp_fan(k), m, list(twists))
