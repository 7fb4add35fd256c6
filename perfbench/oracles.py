"""Independent output oracles for every benchmark job.

Betti numbers come from face counts (Davis-Januszkiewicz: the ring of a
quasitoric manifold has the fan's h-vector in even degrees) and, for
bundles, from Leray-Hirsch (Poincare polynomial of the base times that of
the fibre).  Annihilator generator counts per weighted degree are compared
with the table recorded at the seed commit (expected_generators.json); the
generator strings are not an invariant of the ideal, their number is.
"""

from __future__ import annotations

import json
from math import comb

from instances import Fan, face_counts


def h_vector(fan: Fan) -> list[int]:
    """h_i = sum_j (-1)^(i-j) C(n-j, i-j) f_{j-1}, i = 0..n."""
    f = face_counts(fan)
    n = fan.n
    return [sum((-1) ** (i - j) * comb(n - j, i - j) * f[j] for j in range(i + 1))
            for i in range(n + 1)]


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def fan_betti(fan: Fan) -> list[int]:
    """Betti numbers in degrees 0..2n: h_i in degree 2i, zero in odd degrees."""
    out = [0] * (2 * fan.n + 1)
    for i, h in enumerate(h_vector(fan)):
        out[2 * i] = h
    return out


def bundle_betti(fan: Fan, base_poincare: list[int]) -> list[int]:
    """Leray-Hirsch: P(E) = P(B) * P(F)."""
    return poly_mul(base_poincare, fan_betti(fan))


# ---------------------------------------------------------------------------
# Checks.  Each returns None for a correct output or a one-line reason.

def _parse(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"unparsable output: {exc}"


def _generator_counts(result: dict) -> dict[str, int]:
    return {d: len(gs) for d, gs in result["generators_by_weighted_degree"].items()}


def check_output(kind: str, expect: dict, stdout: str) -> str | None:
    """Compare one job's stdout with the oracle data recorded in `expect`."""
    data, err = _parse(stdout)
    if err:
        return err
    try:
        if kind == "quotient_algebra":
            dims = [0] * len(expect["betti"])
            for d in data["degrees"]:
                dims[d] += 1
            if not data["valid"]:
                return "quotient algebra fails validate()"
            if dims != expect["betti"]:
                return f"graded dims {dims} != oracle {expect['betti']}"
            return None
        result = data["result"]
        if kind == "betti":
            if result["dims"] != expect["betti"] or result["total"] != sum(expect["betti"]):
                return f"betti {result['dims']} != oracle {expect['betti']}"
        elif kind == "brion":
            if result["bundle_dims"] != expect["betti"]:
                return f"bundle dims {result['bundle_dims']} != oracle {expect['betti']}"
            if result["fiber_quotient_dims"] != expect["h"]:
                return f"fibre dims {result['fiber_quotient_dims']} != h-vector {expect['h']}"
        elif kind == "check_all":
            if result.get("ok") is not True or result.get("bkk_failures"):
                return "check-all does not report ok"
            if result["betti"] != expect["betti"]:
                return f"betti {result['betti']} != oracle {expect['betti']}"
            if result["bkk_samples"] != expect["samples"]:
                return f"ran {result['bkk_samples']} samples, asked {expect['samples']}"
        elif kind == "ann_generators":
            counts = _generator_counts(result)
            if counts != expect["generators"]:
                return f"generator counts {counts} != recorded {expect['generators']}"
        else:
            return f"no oracle for job kind {kind!r}"
    except (KeyError, TypeError, IndexError) as exc:
        return f"output lacks expected field: {exc!r}"
    return None
