"""Command-line surface: exit codes, reports, determinism, file loading."""

import argparse
import contextlib
import copy
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import exact
from qtk import ppbrion as pp
from qtk.catalog import all_instances, get
from qtk import cli
from qtk.cli import (COMMANDS, MAX_DEGREE, MAX_SAMPLES, _bkk_samples, instance_digest,
                     load_bundle_file, main)
from qtk.errors import MalformedInputError
from qtk.literals import parse_class

from conftest import clear_caches, exterior_algebra
import fans


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


def exterior_bundle_file(tmp_path):
    """cp1 over the exterior algebra on one degree-1 class e, as a file."""
    payload = {"charpair": cpm.to_json(get("cp1").cp), "base": ba.to_json(exterior_algebra()),
               "chern": {"n": 1, "images": [[]]}}
    path = tmp_path / "cp1-over-exterior.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def bundle_payload(inst):
    """An instance as the JSON object of a bundle file, every part inline."""
    return {"charpair": cpm.to_json(inst.cp), "base": ba.to_json(inst.base),
            "chern": ba.chern_to_json(inst.base, inst.chern)}


# The cp4 bundle over CP^2; the same with its first lattice vector doubled,
# so every cone on that ray has determinant 2; and Chern data of rank 3.
CP4_OVER_CP2 = fans.bundle(fans.cp_fan(4), 2, (1, -1, 2, 0))
DOUBLED_LAMBDA = copy.deepcopy(CP4_OVER_CP2)
DOUBLED_LAMBDA["charpair"]["lambda"][0] = [2 * x for x in DOUBLED_LAMBDA["charpair"]["lambda"][0]]
RANK_3_CHERN = {"n": 3, "images": [["1"], ["-1"], ["2"]]}


@pytest.fixture()
def cp2_bundle_file(tmp_path):
    inst = get("cp2")
    payload = {
        "charpair": cpm.to_json(inst.cp),
        "base": ba.to_json(inst.base),
        "chern": ba.chern_to_json(inst.base, inst.chern),
    }
    path = tmp_path / "cp2_bundle.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def broken_bundle_file(tmp_path):
    inst = get("cp2")
    pair = cpm.to_json(inst.cp)
    pair["max_cones"] = pair["max_cones"][:2]  # break facet pairing
    payload = {
        "charpair": pair,
        "base": ba.to_json(inst.base),
        "chern": ba.chern_to_json(inst.base, inst.chern),
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_catalog_ok(self, capsys):
        code, report = run_json(capsys, "validate", "catalog:cp2")
        assert code == 0
        assert report["result"]["ok"] is True

    def test_broken_pairing_exits_1(self, capsys, broken_bundle_file):
        code, report = run_json(capsys, "validate", broken_bundle_file)
        assert code == 1
        assert report["result"]["ok"] is False

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run(capsys, "validate", "no-such-instance.json")
        assert code == 2
        assert "error" in err

    def test_several_instances(self, capsys):
        code, report = run_json(capsys, "validate", "cp1", "cp2", "cp3")
        assert code == 0
        assert len(report["result"]["instances"]) == 3

    @pytest.mark.parametrize("payload, message, pair_ok", [
        # a cp4 bundle over CP^2 whose Chern data has rank 3
        (dict(CP4_OVER_CP2, chern=RANK_3_CHERN), "chern rank does not match fan dimension",
         True),
        # bott4 over CP^1 with its base class t named x1
        (json.loads(fans.bundle_text(*fans.BUNDLES["bott4-over-cp1"])
                    .replace('"t"', '"x1"')),
         "base name 'x1' collides with divisor or support variables", True),
        # the rank-3 Chern data on a pair that fails validation too
        (dict(DOUBLED_LAMBDA, chern=RANK_3_CHERN), "chern rank does not match fan dimension",
         False),
    ], ids=["chern-rank", "base-name", "chern-rank-on-invalid-pair"])
    def test_malformed_bundle_exits_2_as_every_command_does(self, capsys, tmp_path,
                                                             payload, message, pair_ok):
        """Every command that takes an instance builds its ring before it
        validates the pair, so the malformed bundle is bad input everywhere."""
        assert cpm.validate(cpm.from_json(payload["charpair"])).ok is pair_ok
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        h = ",".join(["1"] * len(payload["charpair"]["rays"]))
        for command, *options in (
                ("validate",), ("betti",), ("volume", "--h", h), ("bkk", "--h", h),
                ("horizontal", "--h", h), ("intersect", "--classes", "x1"), ("potential",),
                ("ann-hilbert",), ("ann-generators",), ("brion",), ("check-all",)):
            code, out, err = run(capsys, command, str(path), *options)
            assert (code, out) == (2, ""), command
            assert message in err, command


class TestBetti:
    def test_hirzebruch(self, capsys):
        code, report = run_json(capsys, "betti", "catalog:hirzebruch?a=1")
        assert code == 0
        assert report["result"]["dims"] == [1, 0, 2, 0, 1]

    def test_cp2_from_file(self, capsys, cp2_bundle_file):
        code, report = run_json(capsys, "betti", cp2_bundle_file)
        assert code == 0
        assert report["result"]["dims"] == [1, 0, 1, 0, 1]

    def test_digest_matches_catalog(self, capsys, cp2_bundle_file):
        _, from_file = run_json(capsys, "betti", cp2_bundle_file)
        _, from_catalog = run_json(capsys, "betti", "cp2")
        assert from_file["input"]["digest"] == from_catalog["input"]["digest"]

    def test_parts_given_as_paths(self, capsys, tmp_path):
        # charpair and chern relative to the bundle file, base absolute
        payload = bundle_payload(get("hirzebruch?a=2"))
        for part in ("charpair", "base", "chern"):
            (tmp_path / f"{part}.json").write_text(json.dumps(payload[part]), encoding="utf-8")
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({"charpair": "charpair.json",
                                    "base": str(tmp_path / "base.json"),
                                    "chern": "chern.json"}), encoding="utf-8")
        _, from_file = run_json(capsys, "betti", str(path))
        _, from_catalog = run_json(capsys, "betti", "hirzebruch?a=2")
        assert from_file["input"]["digest"] == from_catalog["input"]["digest"]
        (tmp_path / "chern.json").unlink()
        code, out, err = run(capsys, "betti", str(path))
        assert (code, out) == (2, "") and "cannot read JSON file" in err


class TestVolume:
    def test_cp2(self, capsys):
        code, report = run_json(capsys, "volume", "cp2", "--h", "1,1,1")
        assert code == 0
        assert report["result"]["volume"] == "9/2"

    def test_rational_h(self, capsys):
        code, report = run_json(capsys, "volume", "cp1", "--h", "1/2,-3")
        assert code == 0
        assert report["result"]["volume"] == "-5/2"

    def test_wrong_length_exits_2(self, capsys):
        code, out, err = run(capsys, "volume", "cp2", "--h", "1,1")
        assert code == 2

    def test_negative_fraction_h(self, capsys):
        code, report = run_json(capsys, "volume", "cp1", "--h=-3/4,1")
        assert code == 0
        assert report["result"]["volume"] == "1/4"

    def test_entries_longer_than_the_digit_limit(self, capsys):
        """An h entry of more digits than int() converts is read in full:
        at h = (N, 1, 1) on cp2 the volume is (N+2)^2/2."""
        big = 10 ** 5000
        code, report = run_json(capsys, "volume", "cp2", "--h", f"{long_str(big)},1,1")
        assert (code, report["result"]) == (0, {"volume": long_str((big + 2) ** 2 // 2)})
        code, report = run_json(capsys, "volume", "cp1", "--h",
                                f"-{long_str(big)}/{long_str(2 * big)},1")
        assert (code, report["result"]) == (0, {"volume": "1/2"})


class TestIntersect:
    def test_cp2_square(self, capsys):
        code, report = run_json(capsys, "intersect", "cp2",
                                "--classes", "x1+x2+x3;x1+x2+x3")
        assert code == 0
        assert report["result"]["value"] == "9"

    def test_hirzebruch_with_base_class(self, capsys):
        code, report = run_json(capsys, "intersect", "hirzebruch?a=2",
                                "--classes", "x1", "--gamma", "t")
        assert code == 0
        assert report["result"]["value"] == "1"

    def test_literal_with_coefficient(self, capsys):
        code, report = run_json(capsys, "intersect", "hirzebruch?a=2",
                                "--classes", "x1^2 - (2)t*x1")
        assert code == 0
        assert report["result"]["value"] == "0"

    def test_coefficient_longer_than_the_digit_limit(self, capsys):
        big = 10 ** 5000
        code, report = run_json(capsys, "intersect", "cp2",
                                "--classes", f"{long_str(big)}*x1;(1/{long_str(big)})*x1")
        assert (code, report["result"]) == (0, {"value": "1"})
        code, report = run_json(capsys, "intersect", "cp2",
                                "--classes", f"{long_str(big)}*x1;x1")
        assert (code, report["result"]) == (0, {"value": long_str(big)})

    def test_powers_up_to_the_bound(self):
        ring = get("cp2").ring()
        for k in range(ring.total_degree + 1):
            product = "*".join(["(x1+2x2)"] * k) or "1"
            assert parse_class(ring, f"(x1+2x2)^{k}") == parse_class(ring, product)


    def test_nesting_up_to_the_bound(self):
        ring = get("cp2").ring()
        assert parse_class(ring, "(" * 100 + "x1" + ")" * 100) == parse_class(ring, "x1")


# The class-literal grammar's alphabet: digits, divisor variables, a base
# name and the operators.
LITERAL_TOKENS = list("0123456789+-*/^()") + ["x1", "x2", "x3", "x4", "t"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(LITERAL_TOKENS), max_size=12).map("".join))
def test_class_literal_fuzz(literal):
    """Any literal from the alphabet computes a value or exits 2."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        # "--classes=" lets literals that start with "-" reach the parser.
        try:
            code = main(["intersect", "cp2", "--classes=" + literal])
        except SystemExit as exc:  # the usage error for "--", which is never a value
            code = exc.code
        assert code in (0, 2)


class TestDashValues:
    """A value starting with "-" may follow --classes, --gamma or --h after a
    space, with the same result as after "="."""

    @pytest.mark.parametrize("argv", [
        ("intersect", "cp2", "--classes", "-x1*x2"),
        ("intersect", "cp2", "--classes", "-x1;x1+x2"),
        ("intersect", "hirzebruch?a=2", "--classes", "x1", "--gamma", "-t"),
        ("volume", "cp2", "--h", "-1,0,0"),
        ("horizontal", "hirzebruch?a=2", "--h", "-3,1/2", "--i", "1"),
        ("bkk", "hirzebruch?a=2", "--gamma", "-1", "--i", "1", "--h", "-1,2"),
    ])
    def test_space_form_equals_equals_form(self, capsys, argv):
        joined = []
        for arg in argv:
            if joined and joined[-1] in ("--classes", "--gamma", "--h"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert run(capsys, *joined) == (code, out, err)


class TestBkk:
    def test_hirzebruch_example(self, capsys):
        code, report = run_json(capsys, "bkk", "hirzebruch?a=2",
                                "--gamma", "1", "--i", "1", "--h", "1,0")
        assert code == 0
        assert report["result"] == {"equal": True, "lhs": "2", "rhs": "2"}

    def test_cp2_volume_case(self, capsys):
        code, report = run_json(capsys, "bkk", "cp2",
                                "--gamma", "1", "--i", "0", "--h", "1,1,1")
        assert code == 0
        assert report["result"]["lhs"] == "9"

    def test_bad_degree_exits_2(self, capsys):
        code, out, err = run(capsys, "bkk", "cp2", "--gamma", "1",
                             "--i", "1", "--h", "1,1,1")
        assert code == 2


class TestHorizontal:
    def test_hirzebruch(self, capsys):
        code, report = run_json(capsys, "horizontal", "hirzebruch?a=1",
                                "--h", "2,1", "--i", "1")
        assert code == 0
        assert report["result"]["class"] == {"t": "3"}


def long_str(n):
    """str(n) by 100-digit pieces, each far below CPython's digit limit."""
    pieces = []
    sign, n = ("-", -n) if n < 0 else ("", n)
    while n >= 10 ** 100:
        n, low = divmod(n, 10 ** 100)
        pieces.append(f"{low:0100d}")
    return sign + str(n) + "".join(reversed(pieces))


class TestLongResults:
    """Results longer than CPython's int-to-str digit limit (4300 digits) are
    written out in full, against the closed forms on cp2: the volume at
    h = (H, 1, 1) is (H+2)^2/2, so both BKK sides and the horizontal part
    at i = 0 are (H+2)^2."""

    BIG = [10 ** 3000, 10 ** 3000 + 1, 7 ** 3500]  # (H+2)^2 even, odd, 5900 digits

    @pytest.mark.parametrize("big_h", BIG)
    def test_volume_bkk_horizontal(self, capsys, big_h):
        limit = sys.get_int_max_str_digits()
        h = f"{long_str(big_h)},1,1"
        square = (big_h + 2) ** 2
        half = long_str(square // 2) if square % 2 == 0 else f"{long_str(square)}/2"
        assert len(half) > 4300
        code, report = run_json(capsys, "volume", "cp2", "--h", h)
        assert (code, report["result"]) == (0, {"volume": half})
        code, report = run_json(capsys, "bkk", "cp2", "--h", h)
        assert (code, report["result"]) == \
            (0, {"equal": True, "lhs": long_str(square), "rhs": long_str(square)})
        code, report = run_json(capsys, "horizontal", "cp2", "--h", h)
        assert (code, report["result"]) == \
            (0, {"class": {"1": long_str(square)}, "pretty": long_str(square)})
        code, out, err = run(capsys, "volume", "cp2", "--h", h, "--format", "text")
        assert (code, err) == (0, "")
        assert out.endswith(f"\nresult.volume: {half}\n")
        assert sys.get_int_max_str_digits() == limit

    def test_negative_intersection(self, capsys):
        big = long_str(10 ** 3000 + 3)
        code, report = run_json(capsys, "intersect", "cp2",
                                "--classes", f"{big}*x1;-{big}*x1")
        assert (code, report["result"]) == (0, {"value": long_str(-(10 ** 3000 + 3) ** 2)})


class TestPotential:
    def test_modes_agree(self, capsys):
        _, integral = run_json(capsys, "potential", "hirzebruch?a=1",
                               "--mode", "integral")
        _, direct = run_json(capsys, "potential", "hirzebruch?a=1",
                             "--mode", "direct")
        assert integral["result"]["potential"] == direct["result"]["potential"]

    def test_cp2_volume_potential(self, capsys):
        code, report = run_json(capsys, "potential", "cp2")
        assert code == 0
        terms = report["result"]["potential"]["terms"]
        assert terms["2,0,0"] == "1/2" and terms["1,1,0"] == "1"


class TestAnnCommands:
    def test_ann_hilbert(self, capsys):
        code, report = run_json(capsys, "ann-hilbert", "hirzebruch?a=1")
        assert code == 0
        assert report["result"]["dims_even"] == [1, 2, 1]

    def test_ann_generators(self, capsys):
        code, report = run_json(capsys, "ann-generators", "cp1")
        assert code == 0
        gens = report["result"]["generators_by_weighted_degree"]
        assert set(gens) == {"2", "4"}

    def test_ann_generators_far_max_degree(self, capsys):
        # No generator lies past the potential's degree plus its largest
        # weight, so a far bound gives the default's generators at once.
        _, default = run_json(capsys, "ann-generators", "cp2")
        code, report = run_json(capsys, "ann-generators", "cp2", "--max-degree", "200")
        assert code == 0
        assert report["result"] == default["result"]


class TestBrion:
    def test_cp2(self, capsys):
        code, report = run_json(capsys, "brion", "cp2")
        assert code == 0
        assert report["result"]["fiber_quotient_dims"] == [1, 1, 1]
        assert report["result"]["bundle_dims"] == [1, 0, 1, 0, 1]

    def test_one_pass_builds_each_shift_map_once(self, capsys, monkeypatch):
        calls, tops = [], []
        for name in ("brion_bundle_dims", "brion_quotient_dims"):
            def counted(*args, _name=name, _real=getattr(pp, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(pp, name, counted)

        def counted_rows(cp, entry, top, _real=pp._facet_rows):
            tops.append(top)
            return _real(cp, entry, top)

        monkeypatch.setattr(pp, "_facet_rows", counted_rows)
        clear_caches()
        code, _ = run_json(capsys, "brion", "cp2-bundle-over-cp1?a=1,b=0")
        assert code == 0
        assert calls == ["brion_bundle_dims"]
        # one table, from one walk over the off-tree facets up to PP degree
        # 3 = n + 1, the largest that the pass reads
        cp = get("cp2-bundle-over-cp1?a=1,b=0").cp
        assert pp._splines.cache_info().misses == 1
        assert tops == [3] * len(pp._spanning_tree(cp)[2])
        # one shift map per degree, d = 1, 2 and 3, each then read again
        info = pp._shift_maps.cache_info()
        assert info.misses == 3 and info.hits > 0
        # no echelon form outlives the pass; `main` froze the heap of this
        # process on its first call, and gc.get_objects() lists no frozen
        # object, so unfreeze it for the check
        gc.unfreeze()
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, exact.RowSpace)]

    def test_point_base_ranks_each_degree_once(self, capsys, monkeypatch):
        # One pass reads the bundle and the fibre lists: one elimination per
        # total degree 0..6, not one more per fibre degree.
        callers = []

        class RowSpace(exact.RowSpace):
            def __init__(self, *args):
                callers.append(sys._getframe(1).f_code.co_name)
                super().__init__(*args)

        clear_caches()
        monkeypatch.setattr(exact, "RowSpace", RowSpace)
        assert main(["brion", "cp3"]) == 0
        assert callers.count("brion_bundle_dims") == 7
        with open(os.path.join(os.path.dirname(__file__), "golden", "brion", "cp3.json"),
                  "rb") as fh:
            assert capsys.readouterr().out.encode("utf-8") == fh.read()

    @pytest.mark.parametrize("spec", ["cp2-bundle-over-cp1?a=1,b=0", "cp3"])
    @pytest.mark.parametrize("max_degree", [0, 1])
    def test_low_max_degree_keeps_the_whole_fibre(self, capsys, spec, max_degree):
        # The fibre is read from total degrees up to 2n, past --max-degree.
        with open(os.path.join(os.path.dirname(__file__), "golden", "brion", spec + ".json"),
                  encoding="utf-8") as fh:
            full = json.load(fh)["result"]
        code, report = run_json(capsys, "brion", spec, "--max-degree", str(max_degree))
        assert code == 0
        assert report["result"] == {
            "bundle_dims": full["bundle_dims"][:max_degree + 1],
            "fiber_quotient_dims": full["fiber_quotient_dims"]}

    def test_far_max_degree_pads_zeros(self, capsys):
        code, report = run_json(capsys, "brion", "cp2", "--max-degree", "100000")
        assert code == 0
        assert report["result"]["bundle_dims"] == [1, 0, 1, 0, 1] + [0] * 99996


class TestCheckAll:
    def test_ok_and_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "check-all", "hirzebruch?a=2")
        code2, out2, _ = run(capsys, "check-all", "hirzebruch?a=2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_flag_changes_samples_not_outcome(self, capsys):
        code, report = run_json(capsys, "check-all", "cp1", "--seed", "99",
                                "--samples", "5")
        assert code == 0
        assert report["result"]["bkk_seed"] == 99

    def test_default_sample_count(self, capsys, monkeypatch):
        monkeypatch.delenv("QTK_SEED", raising=False)
        code, report = run_json(capsys, "check-all", "cp1")
        assert code == 0
        assert report["input"]["samples"] == report["result"]["bkk_samples"] == 20

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QTK_SEED", "1234")
        code, report = run_json(capsys, "check-all", "cp1", "--samples", "3")
        assert code == 0
        assert report["result"]["bkk_seed"] == 1234

    def test_odd_base_skips_hilbert_check(self, capsys, tmp_path):
        path = exterior_bundle_file(tmp_path)
        code, report = run_json(capsys, "check-all", path, "--samples", "5")
        result = report["result"]
        assert result["hilbert_matches"] == "skipped"
        assert result["ann_hilbert_even"] is None
        # the checks that ran passed, and the skipped one does not count
        assert result["betti_equals_brion"] and result["bkk_ok"]
        assert result["ok"] is True and code == 0

    def test_wrong_brion_dims_fail(self, capsys, monkeypatch):
        def brion_bundle_dims(ring, max_degree=None, _real=cli.pp.brion_bundle_dims):
            dims, fiber = _real(ring, max_degree)
            return dims[:-1] + [dims[-1] + 1], fiber

        monkeypatch.setattr(cli.pp, "brion_bundle_dims", brion_bundle_dims)
        code, report = run_json(capsys, "check-all", "cp2", "--samples", "3")
        result = report["result"]
        assert (code, result["betti_equals_brion"], result["ok"]) == (1, False, False)
        assert result["hilbert_matches"] is True and result["bkk_ok"] is True

    def test_invalid_pair_reports_validation_only(self, capsys, tmp_path):
        """A pair whose lambda has a cone of determinant 2 stops check-all
        after validation: no Betti, Hilbert or BKK keys, and exit 1."""
        payload = bundle_payload(get("cp1"))
        payload["charpair"]["lambda"] = [[2], [-1]]
        path = tmp_path / "det2.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, report = run_json(capsys, "check-all", str(path), "--samples", "3")
        assert code == 1
        assert report["input"] == {"instance": "det2.json",
                                   "digest": instance_digest(load_bundle_file(str(path)))}
        assert report["result"] == {"validation": False, "ok": False}

    def test_wrong_ann_hilbert_fails(self, capsys, monkeypatch):
        def ann_hilbert(p, _real=cli.iv.ann_hilbert):
            dims = _real(p)
            return dims[:-1] + (dims[-1] + 1,)

        monkeypatch.setattr(cli.iv, "ann_hilbert", ann_hilbert)
        code, report = run_json(capsys, "check-all", "cp2", "--samples", "3")
        result = report["result"]
        assert (code, result["hilbert_matches"], result["ok"]) == (1, False, False)
        assert result["betti_equals_brion"] is True and result["bkk_ok"] is True


def randint_samples(ring, count, seed):
    """Reference BKK sampler: two randint calls and a Fraction per support
    entry."""
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


@pytest.mark.parametrize("inst", all_instances(), ids=lambda inst: inst.label)
def test_bkk_samples_equal_the_randint_stream(inst):
    """Drawing support entries from prebuilt tuples keeps every check-all
    report: the samples are exactly those of the randint sampler."""
    ring = inst.ring()
    for seed in range(5):
        assert list(_bkk_samples(ring, 300, seed)) == list(randint_samples(ring, 300, seed))


def generated_bundle_file(tmp_path, monkeypatch):
    """P(L0 + L1 + L2) over CP2 with twists (1, 2), from the benchmark's generator."""
    spec = importlib.util.spec_from_file_location(
        "instances", os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                  "perfbench", "instances.py"))
    instances = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "instances", instances)  # its dataclass looks itself up
    spec.loader.exec_module(instances)
    path = tmp_path / "p-l0-l1-l2-over-cp2.json"
    instances.write_bundle(str(path), instances.projective_bundle(2, 2, [1, 2]))
    return str(path)


def test_digest_equals_hashlib_sha256(tmp_path, monkeypatch):
    """The digest, hashed without hashlib, is hashlib's SHA-256 of the
    canonical JSON of the bundle."""
    for inst in all_instances() + [load_bundle_file(generated_bundle_file(tmp_path, monkeypatch))]:
        blob = json.dumps(bundle_payload(inst), sort_keys=True, separators=(",", ":"))
        assert instance_digest(inst) == hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The command-line parser against argparse.
#
# The reference is argparse as qtk used it before it read its command line
# itself: reference_parser is the old build_parser, and old_front_end adds
# the rewrite of "--classes -x1" (likewise --gamma and --h) into
# "--classes=-x1" that ran before it.  qtk's parser must read every command
# line as argparse reads it after values_attached, which applies qtk's one
# rule for option values and so subsumes that rewrite.  DEVIATIONS lists,
# with reasons, where qtk now differs from the old front end.

def reference_int(text):
    return exact.ascii_int(text)


reference_int.__name__ = "int"  # argparse reports "invalid <__name__> value"


def reference_parser(command=None):
    parser = argparse.ArgumentParser(
        prog="qtk",
        description="exact cohomology of generalized quasitoric manifolds and bundles")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        help_, func, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for option, keywords in options:
            if keywords.get("type") is exact.ascii_int:
                keywords = dict(keywords, type=reference_int)
            p.add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser


def reference_parse(argv):
    """build_parser's reading of argv, with "--opt=--" rejected."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = reference_parser(command).parse_args(argv)
    if [] in vars(args).values():  # argparse before 3.12 reads "--opt=--" as []
        sys.stderr.write("error: an option value must not be '--'\n")
        raise SystemExit(2)
    return args


def old_front_end(argv):
    """The whole argparse front end: reference_parse after the rewrite."""
    rewritten, i = [], 0
    while i < len(argv):
        if (argv[i] in ("--classes", "--gamma", "--h") and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and argv[i + 1] != "--"):
            rewritten.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            rewritten.append(argv[i])
            i += 1
    return reference_parse(rewritten)


NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def command_index(argv):
    """Where argparse's top level hands the command line to a command: the
    first token it reads as a positional, if that names a command."""
    for i, token in enumerate(argv):
        if token in COMMANDS:
            return i
        if (not token.startswith("-") or token in ("-", "--") or NEGATIVE_NUMBER.match(token)
                or " " in token):
            return None
    return None


def values_attached(argv):
    """argv written so that argparse reads it by qtk's one rule for values:
    an option that takes a value takes the next token, whatever it starts
    with, except "--".  "--opt V" becomes "--opt=V", and "--opt=--" becomes
    "--opt" followed by a token argparse reads as an unknown option, so that
    the value is missing there as it is for qtk ("--opt --" needs nothing:
    argparse already reads no value there)."""
    start = command_index(argv)
    if start is None:
        return list(argv)
    valued = [option for option, _ in COMMANDS[argv[start]][2] if option.startswith("--")]
    names = ["--help", *valued]
    out, i = list(argv[:start + 1]), start + 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--":
            return out + list(argv[i - 1:])
        head, eq, value = token.partition("=")
        matches = [name for name in names if name == head] or \
            [name for name in names if token.startswith("--") and name.startswith(head)]
        if len(matches) != 1 or matches[0] not in valued:
            out.append(token)
        elif eq:
            out.extend([head, "-x"] if value == "--" else [token])
        elif i < len(argv) and argv[i] != "--":
            out.append(f"{token}={argv[i]}")
            i += 1
        else:
            out.append(token)
    return out


def parse_outcome(parse, argv):
    """(attributes or exit code, stdout, last stderr line) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), (err.getvalue().splitlines() or [""])[-1]


def assert_parses_as_argparse(argv):
    """qtk's parser reads argv as argparse reads it with values attached:
    equal attributes, or equal exit codes, nothing on stdout and the same
    last stderr line.  Help (exit 0) is laid out differently, so of it only
    the exit code and the usage line's start are compared."""
    new = parse_outcome(cli.parse_args, argv)
    old = parse_outcome(reference_parse, values_attached(argv))
    if old[0] == 0:
        assert (new[0], new[1].startswith("usage: qtk"), new[2]) == (0, True, "")
    else:
        assert new == old
        assert new[1] == "" and (isinstance(new[0], dict) or new[2])
    return new


# A valid argument list per command, then edits of it that argparse rejects,
# answers itself or rewrites before parsing.
VALID_ARGS = {
    "validate": ["cp2"], "betti": ["cp2"], "volume": ["cp2", "--h", "1,1,1"],
    "intersect": ["cp2", "--classes", "x1*x1"], "bkk": ["cp2", "--h", "1,1,1"],
    "horizontal": ["cp2", "--h", "1,1,1"], "potential": ["cp2"], "ann-hilbert": ["cp2"],
    "ann-generators": ["cp2"], "brion": ["cp2"], "check-all": ["cp2", "--samples", "3"],
    "catalog": [],
}
EDITS = [[], ["--help"], ["--bogus"], ["--format", "xml"], ["--mode", "x"],
         ["--samples", "x"], ["--sam", "3"], ["--h=--"], ["--classes", "-x1"]]

# Further command lines: the top level, prefixes, extra positionals, repeated
# options and "--" between tokens.
MORE_ARGV = [
    [], ["-h"], ["bogus"], ["--", "betti", "cp3"], ["--bogus", "betti", "cp2"],
    ["-hx"], ["--help=x"], ["-1", "betti"],
    ["check-all", "cp2", "--s", "3"], ["check-all", "cp2", "--se", "-4", "--sa=2"],
    ["betti", "-x"], ["betti", "cp2", "cp3"], ["catalog", "extra"],
    ["betti", "cp2", "--format=text", "--format", "json"], ["betti", "--format", "text", "cp2"],
    ["betti", "-- ", "cp2"], ["betti", "--", "cp2"], ["betti", "cp2", "--"],
    ["betti", "--", "--", "cp2"], ["validate", "cp2", "--", "cp3"],
    ["validate", "cp2", "--format", "json", "cp3"], ["validate", "--", "cp2", "--format", "json"],
    ["volume", "cp2", "--h", "-1,0,0"], ["volume", "cp2", "--h", "--"],
    ["volume", "cp2", "--h", "--", "1,1,1"], ["volume", "--h=1,1,1", "--", "cp2"],
    ["volume", "cp2", "--h"], ["volume", "cp2"], ["volume"], ["volume", "cp2", "--he"],
    ["bkk", "cp2", "--h", "1,1,1", "--i", "-1"], ["bkk", "cp2", "--h", "1", "--i", "\u0663"],
    ["intersect", "cp2", "--classes", "x1", "--gamma", "-t"], ["intersect", "cp2", "--h", "x"],
    ["intersect", "cp2", "--=x"], ["betti", "cp2", "-hh"], ["betti", "cp2", "-hhx"],
    ["betti", "cp2", "-h="], ["betti", "cp2", "--format="], ["betti", "cp2", "-"],
    ["betti", "-- x", "cp2"], ["betti", "--fo x", "cp2"], ["betti", "--fo=x y", "cp2"],
    ["potential", "cp2", "--m", "direct"], ["brion", "cp2", "--m=3"],
    ["ann-generators", "cp2", "--max-degree", "-2"],
]

# Where qtk deliberately reads a command line otherwise than argparse did:
# (argv, qtk's outcome, argparse's last stderr line, reason).
DEVIATIONS = [
    (["check-all", "cp2", "--samples", "-x"],
     "qtk check-all: error: argument --samples: invalid int value: '-x'",
     "qtk check-all: error: argument --samples: expected one argument",
     "an option takes the next token as its value whatever it starts with"),
    (["betti", "cp2", "--format", "--help"],
     "qtk betti: error: argument --format: invalid choice: '--help' (choose from 'json', 'text')",
     "qtk betti: error: argument --format: expected one argument",
     "an option takes the next token as its value whatever it starts with"),
    (["intersect", "cp2", "--cl", "-x1"], {"classes": "-x1"},
     "qtk intersect: error: argument --classes: expected one argument",
     "the old rewrite matched only the full names --classes, --gamma and --h"),
    (["intersect", "cp2", "--classes=--"],
     "qtk intersect: error: argument --classes: expected one argument",
     "error: an option value must not be '--'",
     "'--' is never a value: both forms are rejected in argparse's words"),
    (["betti", "cp2", "--classes", "-x1"],
     "qtk: error: unrecognized arguments: --classes -x1",
     "qtk: error: unrecognized arguments: --classes=-x1",
     "the old rewrite joined --classes to its value even where no command reads it"),
    (["betti", "-h"], "usage: qtk betti [-h] [--format {json,text}] instance",
     "", "help is laid out as one line per option, not argparse's layout"),
]


class TestOneCommandParser:
    def test_table_names_every_command(self):
        assert sorted(VALID_ARGS) == sorted(COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_output_equals_the_full_parser(self, command):
        """The valid argument list and each edit of it parse as argparse
        parses them, the valid one to the same attributes."""
        valid = VALID_ARGS[command]
        result, _, _ = assert_parses_as_argparse([command, *valid])
        assert isinstance(result, dict) and result["command"] == command
        for edit in EDITS:
            assert_parses_as_argparse([command, *valid, *edit])

    @pytest.mark.parametrize("argv", MORE_ARGV, ids=" ".join)
    def test_more_command_lines(self, argv):
        assert_parses_as_argparse(argv)

    @pytest.mark.parametrize("argv, qtk, argparse_said, reason", DEVIATIONS,
                             ids=[" ".join(d[0]) for d in DEVIATIONS])
    def test_listed_deviation(self, argv, qtk, argparse_said, reason):
        new = parse_outcome(cli.parse_args, argv)
        old = parse_outcome(old_front_end, argv)
        if isinstance(qtk, dict):
            assert {k: new[0][k] for k in qtk} == qtk
        elif new[0] == 0:
            assert new[1].splitlines()[0] == qtk
        else:
            assert (new[0], new[1], new[2]) == (2, "", qtk)
        assert old[2] == argparse_said
        assert new != old

    def test_unknown_command_names_the_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        choices = ", ".join(repr(name) for name in COMMANDS)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"qtk: error: argument command: invalid choice: 'bogus' (choose from {choices})\n")

    @pytest.mark.parametrize("argv, code", [
        (["betti", "cp3"], 0), (["bogus"], 2), (["--", "betti", "cp3"], 2)])
    def test_a_run_imports_no_argparse(self, capsys, monkeypatch, argv, code):
        """A run, or a rejected command line, needs none of argparse,
        gettext and locale: here none of them can be imported."""
        for name in ("argparse", "gettext", "locale"):
            monkeypatch.setitem(sys.modules, name, None)
        try:
            assert main(argv) == code
        except SystemExit as exc:
            assert exc.code == code
        out, err = capsys.readouterr()
        assert bool(out) == (code == 0) and "Traceback" not in err


# The parser's alphabet: command names, option names and prefixes, values,
# "--", unknown options and "=" forms.
PARSER_TOKENS = [
    "betti", "volume", "intersect", "check-all", "validate", "catalog", "bkk",
    "cp2", "cp3", "1,1,1", "-1,0,0", "x1", "-x1", "3", "-3", "x", "json", "text",
    "--format", "--fo", "--h", "--he", "--help", "-h", "-hh", "-hx", "--classes", "--cl",
    "--gamma", "--i", "--samples", "--sam", "--s", "--seed", "--bogus", "--", "-", "",
    "--format=text", "--h=1,1,1", "--h=--", "--sam=3", "--s=3", "--=x", "--format=", "-h=x",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PARSER_TOKENS), max_size=7),
       st.sampled_from([[], ["betti"], ["volume"], ["intersect"], ["check-all"],
                        ["validate"], ["catalog"], ["bkk"]]))
def test_parser_fuzz(tokens, command):
    """Any command line from the alphabet parses as argparse parses it with
    values attached."""
    assert_parses_as_argparse(command + tokens)


class TestCatalogAndFormats:
    def test_catalog_lists_instances(self, capsys):
        code, report = run_json(capsys, "catalog")
        assert code == 0
        names = [e["name"] for e in report["result"]["instances"]]
        assert "cp2" in names and "hirzebruch" in names
        assert "cp2-bundle-over-cp1" in names

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "betti", "cp2", "--format", "text")
        assert code == 0
        assert "result.dims: [1, 0, 1, 0, 1]" in out

    def test_text_format_indexes_lists_of_dicts(self, capsys):
        code, out, _ = run(capsys, "validate", "cp2", "cp3", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["command: validate", "input.instances: ['cp2', 'cp3']",
                             "result.instances[0].base.checks[0].detail: "]
        assert "result.instances[1].charpair.checks[0].name: simplicial" in lines
        assert "result.instances[1].instance: cp3" in lines
        assert lines[-1] == "result.ok: True"

    def test_json_is_sorted_and_stable(self, capsys):
        _, out1, _ = run(capsys, "betti", "cp2")
        _, out2, _ = run(capsys, "betti", "cp2")
        assert out1 == out2
        report = json.loads(out1)
        assert list(report) == sorted(report)



class TestMalformedInput:
    """Bad input exits 2 with a message on stderr, never a traceback, and a
    non-integer where an integer belongs is never rounded."""

    def assert_bad_input(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        return err

    @pytest.mark.parametrize("part, key, value", [
        ("charpair", "lambda", [[1, 0], [0, 1], [-1, -1.5]]),
        ("charpair", "lambda", [["1", 0], [0, 1], [-1, -1]]),
        ("charpair", "lambda", [[True, 0], [0, 1], [-1, -1]]),
        ("charpair", "rays", [[True, "0"], ["0", "1"], ["-1", "-1"]]),
        ("charpair", "max_cones", [[1, 2.0], [2, 3], [1, 3]]),
        ("charpair", "lambda", 5),
        ("charpair", "max_cones", [1, 2]),
        ("base", "basis", [{"name": "1", "deg": 0.0}]),
        ("chern", "images", 3),
    ])
    def test_bad_bundle_field(self, capsys, tmp_path, part, key, value):
        inst = get("cp2")
        payload = {
            "charpair": cpm.to_json(inst.cp),
            "base": ba.to_json(inst.base),
            "chern": ba.chern_to_json(inst.base, inst.chern),
        }
        payload[part][key] = value
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        self.assert_bad_input(capsys, "betti", str(path))

    @pytest.mark.parametrize("mode", ["integral", "direct"])
    def test_potential_over_odd_base(self, capsys, tmp_path, mode):
        path = exterior_bundle_file(tmp_path)
        err = self.assert_bad_input(capsys, "potential", path, "--mode", mode)
        assert "base algebra has odd-degree classes" in err
        assert "Traceback" not in err

    def test_top_level_list(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        err = self.assert_bad_input(capsys, "betti", str(path))
        assert f"bundle file {path} must hold a JSON object" in err
        with pytest.raises(MalformedInputError, match="must hold a JSON object"):
            load_bundle_file(str(path))

    @pytest.mark.parametrize("key", ["charpair", "base", "chern"])
    def test_missing_key(self, capsys, tmp_path, key):
        payload = bundle_payload(get("cp2"))
        del payload[key]
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        err = self.assert_bad_input(capsys, "betti", str(path))
        assert f"bundle file misses key '{key}'" in err
        with pytest.raises(MalformedInputError, match=f"misses key '{key}'"):
            load_bundle_file(str(path))

    @pytest.mark.parametrize("literal", ["1/0*x1;x1", "0/0 x1", "x1+2/0"])
    def test_zero_denominator(self, capsys, literal):
        err = self.assert_bad_input(capsys, "intersect", "cp2", "--classes", literal)
        assert "zero denominator" in err

    def test_exponent_above_top_degree(self, capsys):
        start = time.monotonic()
        err = self.assert_bad_input(capsys, "intersect", "cp2",
                                    "--classes", "x1^99999999;x1")
        assert time.monotonic() - start < 10
        assert "top degree 4" in err

    def test_deeply_nested_literal(self, capsys):
        literal = "(" * 300 + "x1" + ")" * 300
        err = self.assert_bad_input(capsys, "intersect", "cp2", "--classes", literal)
        assert "nest deeper than 100 levels" in err

    def test_number_with_too_many_digits(self, capsys):
        # The number is read in full; a bare constant is not of top degree.
        err = self.assert_bad_input(capsys, "intersect", "cp2", "--classes", "1" + "0" * 5000)
        assert "element has degrees [0], expected 4" in err

    def assert_no_value(self, capsys, *argv):
        """"--" is never an option's value: argparse's usage error, exit 2."""
        with pytest.raises(SystemExit) as exc:
            main(["intersect", "cp2", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("qtk intersect: error: argument --classes: expected one argument\n")

    def test_option_value_double_dash(self, capsys):
        self.assert_no_value(capsys, "--classes=--")

    def test_option_value_double_dash_after_a_space(self, capsys):
        self.assert_no_value(capsys, "--classes", "--")

    def test_nested_powers_exit_quickly(self, capsys):
        start = time.monotonic()
        err = self.assert_bad_input(capsys, "intersect", "cp2",
                                    "--classes", "((((x1+x2+x3)^4)^4)^4)^4")
        assert time.monotonic() - start < 10
        assert "top degree 4" in err

    @pytest.mark.parametrize("content", [
        None,  # the path is a directory
        b"\xff\xfe not UTF-8",
        b"[" * 100000 + b"]" * 100000,
    ], ids=["directory", "non-utf8", "deeply-nested"])
    def test_unreadable_bundle_file(self, capsys, tmp_path, content):
        path = tmp_path / "bundle.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        err = self.assert_bad_input(capsys, "betti", str(path))
        assert "cannot read JSON file" in err

    @pytest.mark.parametrize("key", ["products", "fundamental"])
    def test_base_map_given_as_list(self, capsys, tmp_path, key):
        payload = bundle_payload(get("hirzebruch?a=1"))
        payload["base"][key] = [1, 2]
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        err = self.assert_bad_input(capsys, "betti", str(path))
        assert "bad base-algebra object" in err

    def test_non_integer_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("QTK_SEED", "abc")
        err = self.assert_bad_input(capsys, "check-all", "cp2")
        assert "QTK_SEED" in err

    @pytest.mark.parametrize("h", ["1e10000000,1", "1.5,1"])
    def test_support_vector_entry_not_p_over_q(self, capsys, h):
        start = time.monotonic()
        err = self.assert_bad_input(capsys, "volume", "cp1", "--h", h)
        assert time.monotonic() - start < 5
        assert "not a rational" in err

    def test_ray_entry_with_exponent(self, capsys, tmp_path):
        payload = bundle_payload(get("cp2"))
        payload["charpair"]["rays"][0][0] = "1e10000000"
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        start = time.monotonic()
        err = self.assert_bad_input(capsys, "validate", str(path))
        assert time.monotonic() - start < 5
        assert "not a rational" in err

    @pytest.mark.parametrize("argv", [("check-all", "cp2", "--samples", "0")])
    def test_samples_below_one(self, capsys, argv):
        err = self.assert_bad_input(capsys, *argv)
        assert "--samples must be at least 1" in err

    @pytest.mark.parametrize("value", [10 ** 30, MAX_SAMPLES + 1])
    def test_samples_above_the_cap(self, capsys, value):
        start = time.monotonic()
        err = self.assert_bad_input(capsys, "check-all", "cp2", "--samples", str(value))
        assert time.monotonic() - start < 5
        assert err == f"error: --samples must be at most {MAX_SAMPLES}, got {value}\n"

    def test_samples_cap_is_inclusive(self):
        cli._require_samples(MAX_SAMPLES)

    @pytest.mark.parametrize("command", ["brion", "ann-generators"])
    def test_negative_max_degree(self, capsys, command):
        err = self.assert_bad_input(capsys, command, "cp2", "--max-degree", "-3")
        assert "--max-degree must be non-negative, got -3" in err

    @pytest.mark.parametrize("value", [10 ** 30, MAX_DEGREE + 1])
    @pytest.mark.parametrize("command", ["brion", "ann-generators"])
    def test_max_degree_above_the_cap(self, capsys, command, value):
        start = time.monotonic()
        err = self.assert_bad_input(capsys, command, "cp2", "--max-degree", str(value))
        assert time.monotonic() - start < 5
        assert f"--max-degree must be at most {MAX_DEGREE}, got {value}" in err

    @pytest.mark.parametrize("spec, unknown", [
        ("cp2?zz=3", "zz for 'cp2'"), ("hirzebruch?a=1,b=2", "b for 'hirzebruch'")])
    def test_unknown_catalog_parameter(self, capsys, spec, unknown):
        err = self.assert_bad_input(capsys, "betti", spec)
        assert f"unknown parameter(s) {unknown}" in err

    def test_catalog_parameter_given_twice(self, capsys):
        err = self.assert_bad_input(capsys, "betti", "hirzebruch?a=2,a=3")
        assert "parameter 'a' given twice" in err

    @pytest.mark.parametrize("spec, message", [
        ("hirzebruch?a", "bad parameter 'a'"),
        ("hirzebruch?a=1&b", "bad parameter 'b'"),
        ("hirzebruch?a=x", "parameter 'a' must be an integer"),
        ("hirzebruch?a=1.5", "parameter 'a' must be an integer"),
        ("hirzebruch?a=" + "1" * 5000, "parameter 'a' must be an integer"),
        # a parameter value is an optional sign and ASCII digits; int() reads these three
        ("hirzebruch?a=\u0663", "parameter 'a' must be an integer"),
        ("hirzebruch?a=1_0", "parameter 'a' must be an integer"),
        ("cp2-bundle-over-cp1?a=1,b=\uff12", "parameter 'b' must be an integer"),
        # a '?' must be followed by parameters, each with a name
        ("hirzebruch?=1", "bad parameter '=1'"),
        ("hirzebruch?a=1, =2", "bad parameter ' =2'"),
        ("cp2?", "bad parameter ''"),
        ("catalog:cp2?", "bad parameter ''"),
    ])
    def test_bad_catalog_parameter(self, capsys, spec, message):
        err = self.assert_bad_input(capsys, "validate", spec)
        assert err == f"error: {message}\n"

    # ARABIC-INDIC DIGIT THREE, FULLWIDTH DIGIT ZERO and a `_` separator,
    # which int() reads as 3, 0 and 10.
    @pytest.mark.parametrize("value", ["\u0663", "\uff10", "1_0"])
    @pytest.mark.parametrize("argv, option", [
        (("check-all", "cp1", "--samples"), "--samples"),
        (("check-all", "cp1", "--seed"), "--seed"),
        (("brion", "cp1", "--max-degree"), "--max-degree"),
        (("ann-generators", "cp1", "--max-degree"), "--max-degree"),
        (("bkk", "cp1", "--h", "1,1", "--i"), "--i"),
        (("horizontal", "cp1", "--h", "1,1", "--i"), "--i")],
        ids=["samples", "seed", "brion-max-degree", "generators-max-degree", "bkk-i",
             "horizontal-i"])
    def test_integer_options_are_ascii(self, capsys, argv, option, value):
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: argument {option}: invalid int value: {value!r}\n")

    @pytest.mark.parametrize("value", ["\u0667", "\uff17", "7_0"])
    def test_seed_variable_is_ascii(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QTK_SEED", value)
        err = self.assert_bad_input(capsys, "check-all", "cp1", "--samples", "1")
        assert err == f"error: QTK_SEED must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("digit", ["\u0663", "\uff13"])
    def test_literal_digits_are_ascii(self, capsys, digit):
        """--classes reads numbers by the rule of --h: a non-ASCII digit, here
        ARABIC-INDIC DIGIT THREE or FULLWIDTH DIGIT THREE, is bad input in both."""
        err = self.assert_bad_input(capsys, "intersect", "cp2", "--classes", f"{digit}*x1;x1")
        assert err == f"error: bad character in literal: '{digit}*x1'\n"
        err = self.assert_bad_input(capsys, "volume", "cp2", "--h", f"{digit},1,1")
        assert err == f"error: not a rational: '{digit}'\n"

    @pytest.mark.parametrize("key, value, message", [
        ("basis", [{"name": "1", "deg": 0}, {"name": "1", "deg": 2}], "duplicate basis names"),
        ("basis", [{"name": "1", "deg": -2}], "negative degree"),
        ("products", {"0,1": [["1", "1"]]}, "product index out of range"),
    ])
    def test_malformed_base_algebra(self, capsys, tmp_path, key, value, message):
        """The base-algebra checks a bundle file can reach; the degree count,
        product result index and fundamental count follow from one basis
        list there, and are tested on the constructor in test_basealg."""
        payload = bundle_payload(get("cp2"))
        payload["base"][key] = value
        path = tmp_path / "base.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        err = self.assert_bad_input(capsys, "validate", str(path))
        assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# Fuzzing mutated bundle files.

BUNDLES = [bundle_payload(inst) for inst in all_instances()]
OTHER_JSON = [None, True, 0, -1, 2.5, "x", "1/0", [], [1], [[1]], {}, {"a": 1}]


def _json_paths(value, prefix=()):
    """Paths (key or index tuples) to every value below the root."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _mutate(data, payload) -> None:
    """Delete a value, give it another JSON type, or swap an int for a float
    or a huge int."""
    paths = list(_json_paths(payload))
    if not paths:
        return
    path = data.draw(st.sampled_from(paths))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    kinds = ["delete", "retype"]
    if isinstance(old, int) and not isinstance(old, bool):
        kinds += ["float", "huge"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "retype":
        parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(
            [v for v in OTHER_JSON if type(v) is not type(old)])))
    elif kind == "float":
        parent[path[-1]] = old + data.draw(st.sampled_from([0.0, 0.5]))
    else:
        parent[path[-1]] = data.draw(st.sampled_from([1, -1])) * 10 ** 30


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_bundle_json_fuzz(data):
    """validate and betti on a mutated catalog bundle exit 0, 1 or 2 and
    never write a traceback."""
    payload = copy.deepcopy(data.draw(st.sampled_from(BUNDLES)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, payload)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bundle.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        for command in ("validate", "betti"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, path])
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
