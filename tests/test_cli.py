"""Command-line surface: exit codes, reports, determinism, file loading."""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtk import basealg as ba
from qtk import charpair as cpm
from qtk import exact
from qtk import ppbrion as pp
from qtk.catalog import all_instances, get
from qtk.cli import main
from qtk.literals import parse_class

from conftest import clear_caches, exterior_algebra


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
        assert main(["intersect", "cp2", "--classes=" + literal]) in (0, 2)


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

    def test_fiber_call_reuses_the_bundle_call_products(self, capsys):
        clear_caches()
        code, _ = run_json(capsys, "brion", "cp2-bundle-over-cp1?a=1,b=0")
        assert code == 0
        info = pp._character_shifts.cache_info()
        assert info.hits > 0
        # one proof per degree, d = 1, 2 and 3; the fibre's d = 1 and 2 are hits
        assert info.misses == 3

    def test_point_base_ranks_each_degree_once(self, capsys, monkeypatch):
        # Over a point the bundle is its own fibre, so the fibre list is read
        # from the bundle's ranks: one per degree 0..6, not two.
        callers = []

        def rank(rows, ncols, _real=exact.rank):
            callers.append(sys._getframe(1).f_code.co_name)
            return _real(rows, ncols)

        clear_caches()
        monkeypatch.setattr(exact, "rank", rank)
        assert main(["brion", "cp3"]) == 0
        assert callers.count("brion_bundle_dims") == 7
        with open(os.path.join(os.path.dirname(__file__), "golden", "brion", "cp3.json"),
                  "rb") as fh:
            assert capsys.readouterr().out.encode("utf-8") == fh.read()

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
        assert "JSON object" in err

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
        self.assert_bad_input(capsys, "intersect", "cp2", "--classes", "1" + "0" * 5000)

    def test_option_value_double_dash(self, capsys):
        self.assert_bad_input(capsys, "intersect", "cp2", "--classes=--")

    def test_option_value_double_dash_after_a_space(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["intersect", "cp2", "--classes", "--"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

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

    @pytest.mark.parametrize("command", ["brion", "ann-generators"])
    def test_negative_max_degree(self, capsys, command):
        err = self.assert_bad_input(capsys, command, "cp2", "--max-degree", "-3")
        assert "--max-degree must be non-negative, got -3" in err

    @pytest.mark.parametrize("spec, unknown", [
        ("cp2?zz=3", "zz for 'cp2'"), ("hirzebruch?a=1,b=2", "b for 'hirzebruch'")])
    def test_unknown_catalog_parameter(self, capsys, spec, unknown):
        err = self.assert_bad_input(capsys, "betti", spec)
        assert f"unknown parameter(s) {unknown}" in err

    def test_catalog_parameter_given_twice(self, capsys):
        err = self.assert_bad_input(capsys, "betti", "hirzebruch?a=2,a=3")
        assert "parameter 'a' given twice" in err


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
