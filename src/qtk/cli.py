"""Command-line interface.

Commands: validate, betti, volume, intersect, bkk, horizontal, potential,
ann-hilbert, ann-generators, brion, check-all, catalog.  Instances are
catalog names ("catalog:cp2", "hirzebruch?a=2") or paths to bundle JSON
files.  Reports are byte-deterministic; rationals are serialized as strings.

Exit codes: 0 success / verified, 1 mathematical check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from fractions import Fraction

from . import basealg as ba
from . import catalog as cat
from . import charpair as cpm
from . import invsys as iv
from . import multipoly as mp
from . import ppbrion as pp
from . import srbundle as sr
from .errors import MalformedInputError, QtkError
from .exact import scalar_str
from .literals import parse_class, parse_gamma, parse_h
from .srbundle import BundleRing


class CheckFailure(Exception):
    """A mathematical check failed (exit code 1)."""


# ---------------------------------------------------------------------------
# Instance loading.

def _read_json(path: str):
    """Load a JSON file; one that cannot be opened, decoded or parsed is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise MalformedInputError(f"cannot read JSON file {path}: {exc}") from exc


def _inline_or_path(value, loader_json, base_dir):
    if isinstance(value, str):
        return loader_json(_read_json(os.path.join(base_dir, value)))
    return loader_json(value)


def load_bundle_file(path: str) -> cat.InstanceBundle:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise QtkError(f"bundle file {path} must hold a JSON object")
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        cp = _inline_or_path(data["charpair"], cpm.from_json, base_dir)
        base = _inline_or_path(data["base"], ba.from_json, base_dir)
        chern = _inline_or_path(data["chern"], lambda d: ba.chern_from_json(base, d),
                                base_dir)
    except KeyError as exc:
        raise QtkError(f"bundle file misses key {exc}") from exc
    return cat.InstanceBundle(name=os.path.basename(path), params=(), cp=cp,
                              base=base, chern=chern)


def resolve_instance(spec: str) -> cat.InstanceBundle:
    if spec.startswith("catalog:"):
        return cat.get(spec)
    if os.path.exists(spec):
        return load_bundle_file(spec)
    return cat.get(spec)


def instance_digest(inst: cat.InstanceBundle) -> str:
    payload = {
        "charpair": cpm.to_json(inst.cp),
        "base": ba.to_json(inst.base),
        "chern": ba.chern_to_json(inst.base, inst.chern),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Report rendering.

def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [f"command: {report['command']}"]
    for key, value in sorted(report.get("input", {}).items()):
        lines.append(f"input.{key}: {value}")
    lines.extend(_render_tree("result", report.get("result")))
    return "\n".join(lines) + "\n"


def _render_tree(prefix: str, value) -> list[str]:
    if isinstance(value, dict):
        out = []
        for k in sorted(value):
            out.extend(_render_tree(f"{prefix}.{k}", value[k]))
        return out
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        out = []
        for i, v in enumerate(value):
            out.extend(_render_tree(f"{prefix}[{i}]", v))
        return out
    return [f"{prefix}: {value}"]


def _report(command: str, inst: cat.InstanceBundle | None, extra_input: dict,
            result: dict) -> dict:
    inp = dict(extra_input)
    if inst is not None:
        inp["instance"] = inst.label
        inp["digest"] = instance_digest(inst)
    return {"command": command, "input": inp, "result": result}


# ---------------------------------------------------------------------------
# Command implementations.  Each returns (report, exit_code).

def _validated_ring(inst: cat.InstanceBundle, samples: int = 64) -> BundleRing:
    rep = cpm.validate(inst.cp, samples=samples)
    if not rep.ok:
        raise CheckFailure("characteristic pair fails validation")
    brep = inst.base.validate()
    if not brep.ok:
        raise CheckFailure("base algebra fails validation")
    return inst.ring()


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise MalformedInputError(f"--samples must be at least 1, got {samples}")


def _require_max_degree(max_degree: int | None) -> None:
    if max_degree is not None and max_degree < 0:
        raise MalformedInputError(f"--max-degree must be non-negative, got {max_degree}")


def _seed(default: int) -> int:
    """QTK_SEED overrides --seed; it must be an integer."""
    raw = os.environ.get("QTK_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise MalformedInputError(f"QTK_SEED must be an integer, got {raw!r}") from None


def cmd_validate(args) -> tuple[dict, int]:
    _require_samples(args.samples)
    results = []
    all_ok = True
    for spec in args.instance:
        inst = resolve_instance(spec)
        pair_rep = cpm.validate(inst.cp, samples=args.samples)
        base_rep = inst.base.validate()
        ok = pair_rep.ok and base_rep.ok
        all_ok = all_ok and ok
        results.append({
            "instance": inst.label,
            "digest": instance_digest(inst),
            "charpair": pair_rep.as_dict(),
            "base": base_rep.as_dict(),
            "ok": ok,
        })
    report = {"command": "validate", "input": {"instances": list(args.instance)},
              "result": {"instances": results, "ok": all_ok}}
    return report, 0 if all_ok else 1


def cmd_betti(args) -> tuple[dict, int]:
    inst = resolve_instance(args.instance)
    ring = _validated_ring(inst)
    dims = sr.betti(ring)
    return _report("betti", inst, {}, {"dims": dims, "total": sum(dims)}), 0


def cmd_volume(args) -> tuple[dict, int]:
    inst = resolve_instance(args.instance)
    ring = _validated_ring(inst)
    h = parse_h(args.h, inst.cp.s)
    val = mp.volume(mp.multipolytope(inst.cp, h))
    return _report("volume", inst, {"h": args.h},
                   {"volume": scalar_str(val)}), 0


def cmd_intersect(args) -> tuple[dict, int]:
    inst = resolve_instance(args.instance)
    ring = _validated_ring(inst)
    classes = [parse_class(ring, lit) for lit in args.classes.split(";") if lit.strip()]
    gamma = parse_gamma(ring, args.gamma)
    val = sr.intersection_number(ring, classes, gamma)
    return _report("intersect", inst, {"classes": args.classes, "gamma": args.gamma},
                   {"value": scalar_str(val)}), 0


def cmd_bkk(args) -> tuple[dict, int]:
    inst = resolve_instance(args.instance)
    ring = _validated_ring(inst)
    gamma = parse_gamma(ring, args.gamma)
    h = parse_h(args.h, inst.cp.s)
    res = mp.bkk_check(ring, gamma, args.i, mp.multipolytope(inst.cp, h))
    report = _report("bkk", inst, {"gamma": args.gamma, "i": args.i, "h": args.h}, {
        "lhs": scalar_str(res.lhs),
        "rhs": scalar_str(res.rhs),
        "equal": res.equal,
    })
    return report, 0 if res.equal else 1


def cmd_horizontal(args) -> tuple[dict, int]:
    inst = resolve_instance(args.instance)
    ring = _validated_ring(inst)
    h = parse_h(args.h, inst.cp.s)
    el = mp.horizontal_part(ring, mp.multipolytope(inst.cp, h), args.i)
    result = {
        "class": {ring.base.names[idx]: scalar_str(c) for idx, c in sorted(el.items())},
        "pretty": ba.el_str(ring.base, el),
    }
    return _report("horizontal", inst, {"h": args.h, "i": args.i}, result), 0


def cmd_potential(args) -> tuple[dict, int]:
    inst = resolve_instance(args.instance)
    ring = _validated_ring(inst)
    builder = iv.bundle_potential_integral if args.mode == "integral" \
        else iv.bundle_potential_direct
    pot = builder(ring)
    return _report("potential", inst, {"mode": args.mode},
                   {"potential": pot.to_json(),
                    "pretty": pot.poly.to_str(pot.var_names)}), 0


def cmd_ann_hilbert(args) -> tuple[dict, int]:
    inst = resolve_instance(args.instance)
    ring = _validated_ring(inst)
    pot = iv.bundle_potential_integral(ring)
    hf = iv.ann_hilbert(pot)
    return _report("ann-hilbert", inst, {}, iv.hilbert_json(hf)), 0


def cmd_ann_generators(args) -> tuple[dict, int]:
    _require_max_degree(args.max_degree)
    inst = resolve_instance(args.instance)
    ring = _validated_ring(inst)
    pot = iv.bundle_potential_integral(ring)
    gens = iv.ann_generators(pot, args.max_degree)
    result = {
        str(d): [g.to_str(pot.var_names) for g in gs]
        for d, gs in sorted(gens.items())
    }
    return _report("ann-generators", inst, {"max_degree": args.max_degree},
                   {"generators_by_weighted_degree": result}), 0


def cmd_brion(args) -> tuple[dict, int]:
    _require_max_degree(args.max_degree)
    inst = resolve_instance(args.instance)
    ring = _validated_ring(inst)
    bundle_dims = pp.brion_bundle_dims(ring, args.max_degree)
    fiber = pp.brion_quotient_dims(inst.cp)
    return _report("brion", inst, {"max_degree": args.max_degree},
                   {"bundle_dims": bundle_dims, "fiber_quotient_dims": fiber}), 0


def _bkk_samples(ring: BundleRing, count: int, seed: int):
    rng = random.Random(seed)
    k = ring.base.top
    for _ in range(count):
        while True:
            i = rng.randint(0, k // 2)
            candidates = ring.base.indices_of_degree(k - 2 * i)
            if candidates:
                break
        gamma = {rng.choice(candidates): Fraction(1)}
        h = []
        for _ in range(ring.cp.s):
            den = rng.randint(1, 4)
            h.append(Fraction(rng.randint(-3 * den, 3 * den), den))
        yield gamma, i, h


def cmd_check_all(args) -> tuple[dict, int]:
    _require_samples(args.samples)
    seed = _seed(args.seed)
    inst = resolve_instance(args.instance)
    pair_rep = cpm.validate(inst.cp)
    base_rep = inst.base.validate()
    result: dict = {"validation": pair_rep.ok and base_rep.ok}
    if not result["validation"]:
        report = _report("check-all", inst, {}, dict(result, ok=False))
        return report, 1
    ring = inst.ring()
    dims = sr.betti(ring)
    brion = pp.brion_bundle_dims(ring)
    result["betti"] = dims
    result["brion_dims"] = brion
    result["betti_equals_brion"] = dims == brion
    even_base = not any(d % 2 for d in ring.base.degrees)
    if even_base:
        pot = iv.bundle_potential_integral(ring)
        hf = iv.ann_hilbert(pot)
        result["ann_hilbert_even"] = list(hf.even())
        result["betti_even"] = dims[0::2]
        result["hilbert_matches"] = list(hf.even()) == dims[0::2]
    else:  # the apolar Hilbert function is only defined over even bases
        result["hilbert_matches"] = "skipped"
        result["ann_hilbert_even"] = None
    failures = []
    for gamma, i, h in _bkk_samples(ring, args.samples, seed):
        res = mp.bkk_check(ring, gamma, i, mp.multipolytope(inst.cp, h))
        if not res.equal:
            failures.append({
                "gamma": ba.el_str(ring.base, gamma), "i": i,
                "h": [scalar_str(v) for v in h],
                "lhs": scalar_str(res.lhs), "rhs": scalar_str(res.rhs),
            })
    result["bkk_samples"] = args.samples
    result["bkk_seed"] = seed
    result["bkk_failures"] = failures
    result["bkk_ok"] = not failures
    # A skipped check is neither passed nor failed: ok needs every check made.
    ok = all(result[k] for k in ("betti_equals_brion", "hilbert_matches", "bkk_ok")
             if result[k] != "skipped")
    result["ok"] = ok
    return _report("check-all", inst, {"samples": args.samples, "seed": seed},
                   result), 0 if ok else 1


def cmd_catalog(args) -> tuple[dict, int]:
    entries = [{"name": name, "description": cat.DESCRIPTIONS[name]}
               for name in cat.CATALOG_NAMES]
    return {"command": "catalog", "input": {},
            "result": {"instances": entries}}, 0


# ---------------------------------------------------------------------------
# Argument parsing.

def _add_instance(p, plural=False):
    if plural:
        p.add_argument("instance", nargs="+", help="catalog name or bundle file")
    else:
        p.add_argument("instance", help="catalog name or bundle file")
    p.add_argument("--format", choices=("json", "text"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtk",
        description="exact cohomology of generalized quasitoric manifolds and bundles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate instances")
    _add_instance(p, plural=True)
    p.add_argument("--samples", type=int, default=64,
                   help="coverage sample count for the fan validator")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("betti", help="graded dimensions of the bundle ring")
    _add_instance(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("volume", help="signed volume of a multi-polytope")
    _add_instance(p)
    p.add_argument("--h", required=True, help="support numbers, e.g. 1,1/2,-3")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("intersect", help="top intersection number of classes")
    _add_instance(p)
    p.add_argument("--classes", required=True,
                   help="semicolon-separated class literals")
    p.add_argument("--gamma", default="1", help="base class literal")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("bkk", help="compare integral and intersection pipelines")
    _add_instance(p)
    p.add_argument("--gamma", default="1")
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--h", required=True)
    p.set_defaults(func=cmd_bkk)

    p = sub.add_parser("horizontal", help="horizontal part of a power of rho")
    _add_instance(p)
    p.add_argument("--h", required=True)
    p.add_argument("--i", type=int, default=0)
    p.set_defaults(func=cmd_horizontal)

    p = sub.add_parser("potential", help="bundle potential")
    _add_instance(p)
    p.add_argument("--mode", choices=("integral", "direct"), default="integral")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("ann-hilbert", help="Hilbert function of the potential quotient")
    _add_instance(p)
    p.set_defaults(func=cmd_ann_hilbert)

    p = sub.add_parser("ann-generators", help="annihilator generators of the potential")
    _add_instance(p)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=cmd_ann_generators)

    p = sub.add_parser("brion", help="piecewise-polynomial quotient dimensions")
    _add_instance(p)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=cmd_brion)

    p = sub.add_parser("check-all", help="cross-check all three presentations")
    _add_instance(p)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_all)

    p = sub.add_parser("catalog", help="list built-in instances")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_catalog)

    return parser


# Options whose values may start with "-", like the literal "-x1*x2" or the
# support vector "-1,0,0", which argparse would otherwise take for an option.
_DASH_VALUE_OPTIONS = ("--classes", "--gamma", "--h")


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Rewrite "--classes -x1" as "--classes=-x1" (likewise --gamma, --h).

    The value "--" is left alone, so it is still rejected.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (arg in _DASH_VALUE_OPTIONS and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and argv[i + 1] != "--"):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(
        sys.argv[1:] if argv is None else list(argv)))
    if [] in vars(args).values():  # argparse before 3.12 reads "--opt=--" as []
        sys.stderr.write("error: an option value must not be '--'\n")
        return 2
    try:
        report, code = args.func(args)
    except CheckFailure as exc:
        sys.stdout.write(json.dumps(
            {"command": args.command, "error": str(exc), "ok": False},
            sort_keys=True, indent=2) + "\n")
        return 1
    except QtkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(render(report, getattr(args, "format", "json")))
    return code


if __name__ == "__main__":
    sys.exit(main())
