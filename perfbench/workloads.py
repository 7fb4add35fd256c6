"""The three workloads: which jobs run, on which instances, with what oracle.

The seed picks twists, Chern data, Bott-tower signs, the blown-up cone and
the check-all sampling seed.  It never changes an instance's shape
(dimension, ray count, cones or base), so run time depends on the seed only
through the size of entries, which the chosen ranges keep small.

- fans: betti and brion on smooth complete fans over a point of dimension
  4-5.  Large one-shot sparse eliminations (exact, kernels) and the
  piecewise-polynomial kernels and products (ppbrion) do the work; invsys
  and multipoly do none.
- crosscheck: check-all with many BKK samples on bundles over bases of
  positive dimension plus two fans over a point.  multipoly vertex sums,
  srbundle reduction and evaluation, basealg products, invsys potentials and
  exact's uncached det and solve_exact (from cone_sign and dual_edge_frame)
  do the work; every matrix is tiny, so the elimination kernel is a small
  share of it.
- generators: ann-generators and the library quotient_algebra on small
  instances.  Same exact layer as fans, used differently: many small
  incremental re-rankings (rank(current + [v])) instead of a few large ones.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from itertools import product

import instances as ins
from oracles import bundle_betti, h_vector, poly_mul

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fans", "crosscheck", "generators")
KINDS = ("betti", "brion", "check_all", "ann_generators", "quotient_algebra")
CHECK_ALL_SAMPLES = 300
# Catalog families whose parameters the seed draws, with the values it draws from.
VARIANTS = {
    "hirzebruch": {"a": (1, 2, 3)},
    "cp1-bundle-over-cp2": {"a": (1, 2, 3)},
    "cp2-bundle-over-cp1": {"a": (1, 2), "b": (1, 2)},
}


def draw_variant(rng: random.Random, family: str) -> str:
    """A seeded catalog spec of the family, e.g. "hirzebruch?a=2"."""
    return family + "?" + ",".join(f"{k}={rng.choice(v)}"
                                   for k, v in VARIANTS[family].items())


def all_variants(family: str) -> list[str]:
    """Every spec draw_variant can return for the family."""
    params = VARIANTS[family]
    return [family + "?" + ",".join(f"{k}={v}" for k, v in zip(params, values))
            for values in product(*params.values())]


@dataclass(frozen=True)
class Job:
    id: str
    kind: str  # one of KINDS
    argv: tuple[str, ...]  # qtk CLI arguments, or (instance,) for a library call
    expect: dict = field(compare=False)

    @property
    def instance(self) -> str:
        return self.argv[0] if self.kind == "quotient_algebra" else self.argv[1]


def _expect(fan: ins.Fan, base_poincare: list[int] = (1,)) -> dict:
    return {"betti": bundle_betti(fan, list(base_poincare)), "h": h_vector(fan)}


def _catalog(spec: str) -> dict:
    """Oracle data for the catalog instances the workloads use, described
    independently of qtk: the fibre fan and the Betti numbers of the base."""
    name = spec.partition("?")[0]
    cp1, cp2 = ins.cp_poincare(1), ins.cp_poincare(2)
    table = {
        "hirzebruch": (ins.cp_fan(1), cp1),
        "cp1-bundle-over-cp2": (ins.cp_fan(1), cp2),
        "cp1xcp1-bundle": (ins.cp_fan(1), poly_mul(cp1, cp1)),
        "cp2-bundle-over-cp1": (ins.cp_fan(2), cp1),
        "cp3": (ins.cp_fan(3), [1]),
        "cp2-twist": (ins.cp_fan(2, (1, 1)), [1]),
    }
    fan, base = table[name]
    return _expect(fan, base)


def _fans(rng: random.Random, workdir: str) -> tuple[list[Job], list[str]]:
    tw = lambda n: ins.random_twist(rng, n)
    cp4 = ins.cp_fan(4, tw(4))
    fans = {
        "cp4": cp4,
        "cp5": ins.cp_fan(5, tw(5)),
        "cp2xcp2": ins.product_fan(ins.cp_fan(2, tw(2)), ins.cp_fan(2, tw(2))),
        "cp3xcp1": ins.product_fan(ins.cp_fan(3, tw(3)), ins.cp_fan(1)),
        "cp4-blowup": ins.blow_up(cp4, rng.randrange(len(cp4.cones))),
        "bott4": ins.bott_tower(ins.random_bott_entries(rng, 4), 4),
    }
    files = {}
    for label, fan in fans.items():
        path = os.path.join(workdir, f"{label}.json")
        ins.write_bundle(path, ins.bundle_json(fan))
        files[label] = path
    jobs = [Job(f"betti:{label}", "betti", ("betti", files[label]), _expect(fan))
            for label, fan in fans.items()]
    # brion takes 2.0 s on cp4, 4-6 s on the other dimension-4 fans, 27 s on
    # bott4 and 55 s on cp5 (seed 1, 2-vCPU host, pure-Python kernel); one
    # instance keeps three passes in a run.
    jobs.append(Job("brion:cp4", "brion", ("brion", files["cp4"]), _expect(cp4)))
    return jobs, list(files.values())


def _crosscheck(rng: random.Random, workdir: str) -> tuple[list[Job], list[str]]:
    hirz, cp1b, cp2b = (draw_variant(rng, family) for family in VARIANTS)
    specs = [hirz, cp1b, "cp1xcp1-bundle", cp2b, "cp3", "cp2-twist"]
    twists = [rng.choice((-1, 1, 2)) for _ in range(2)]
    path = os.path.join(workdir, "pl0l1l2-over-cp2.json")
    ins.write_bundle(path, ins.projective_bundle(2, 2, twists))
    check_seed = str(rng.randrange(10 ** 6))
    targets = [(s, s, _catalog(s)) for s in specs]
    targets.append(("pl0l1l2-over-cp2", path,
                    _expect(ins.cp_fan(2), ins.cp_poincare(2))))
    jobs = []
    for label, inst, expect in targets:
        expect = dict(expect, samples=CHECK_ALL_SAMPLES)
        jobs.append(Job(f"check_all:{label}", "check_all",
                        ("check-all", inst, "--samples", str(CHECK_ALL_SAMPLES),
                         "--seed", check_seed), expect))
    return jobs, [path]


def _generators(rng: random.Random, workdir: str) -> tuple[list[Job], list[str]]:
    hirz, cp1b, cp2b = (draw_variant(rng, family) for family in VARIANTS)
    with open(os.path.join(HERE, "expected_generators.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    jobs = []
    for spec in ("cp3", hirz, cp1b, "cp1xcp1-bundle", cp2b):
        expect = dict(_catalog(spec), generators=recorded[spec])
        jobs.append(Job(f"ann_generators:{spec}", "ann_generators",
                        ("ann-generators", spec), expect))
    for spec in ("cp3", "cp1xcp1-bundle", hirz, cp2b):
        jobs.append(Job(f"quotient_algebra:{spec}", "quotient_algebra", (spec,),
                        _catalog(spec)))
    return jobs, []


def build(workload: str, seed: int, workdir: str) -> tuple[list[Job], list[str]]:
    """Job list of a workload and the bundle files it generated in workdir."""
    builders = {"fans": _fans, "crosscheck": _crosscheck, "generators": _generators}
    os.makedirs(workdir, exist_ok=True)
    return builders[workload](random.Random(f"{workload}:{seed}"), workdir)
