"""`qtk check-all`, `qtk brion`, `qtk potential` (both modes), `qtk bkk`, `qtk volume`,
`qtk horizontal`, `qtk ann-hilbert`, `qtk ann-generators`, `qtk betti`,
`qtk validate` and `qtk catalog` reports compared byte for byte against
committed files.

The files under tests/golden/<command> were written once from
`qtk <command> <spec>` (default options, samples and seed) and are never
regenerated by a refactor: any change in a report means a change in the
mathematics.  The brion reports also cover `fiber_quotient_dims`, which
check-all does not print.  The potential reports pin every coefficient of
the integral potential; a fault shared by both potential builders (and so
invisible to comparing them) shows here.  The potential-direct reports,
from `qtk potential <spec> --mode direct`, pin the direct potential, whose
coefficients are the pairings <gamma x^alpha, [M]> of srbundle's
`evaluate_top`.  The bkk reports pin both sides
of the BKK identity, lhs and rhs, which check-all never prints, so a fault
shared by the integral and the intersection side shows too.  They are
written from `qtk bkk <spec> --gamma 1 --i <top/2> --h <BKK_H>`, with h cut
to the spec's ray count.  The volume and horizontal reports use the same h,
horizontal at the same i; the ann-hilbert reports pin the apolar Hilbert
function in every weighted degree, odd ones included, where check-all
prints only the even ones.  The ann-generators reports pin the generator
strings, which depend on the kernel basis of the apolar rows, so a change
in the order or scale of those rows shows.  The betti and validate reports
pin every instance label and digest, and so the parameters and data each
catalog entry builds; the catalog reports, one per --format, pin the
listing of names and descriptions.

The brion-fans reports pin `qtk brion`, `qtk validate` and `qtk betti` on
generated fans of dimension 4 and 5 over a point, and on generated fans of
dimension 4 over CP^1 and CP^2 with nonzero Chern data (tests/fans.py),
each written beside the bundle file it was run on.  The bundles over CP^1
and CP^2 pin the fibre quotient dimensions of a fibre of dimension above 2
over a base of positive dimension; the validate reports pin the coverage
detail strings at dimensions the catalog does not reach.  The bundle files
themselves must still be what tests/fans.py writes.
"""

import os

import pytest

from qtk.catalog import all_instances, get
from qtk.cli import main

import fans

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
# One directory per report kind: the command, or a command at one mode.
DIRECTORIES = ["check-all", "brion", "potential", "potential-direct", "bkk", "volume",
               "horizontal", "ann-hilbert", "ann-generators", "betti", "validate"]
EXTRA_SPECS = ["cp2-bundle-over-cp1?a=1,b=2"]
SPECS = sorted({inst.label for inst in all_instances()} | set(EXTRA_SPECS))
# The bkk support vector: negative and fractional entries, mixed denominators.
BKK_H = ["3/2", "-1", "2/3", "-5/4"]


def h_args(spec):
    """The --h option of a golden report: BKK_H cut to the ray count."""
    return ["--h", ",".join(BKK_H[:get(spec).cp.s])]


def i_args(spec):
    """The --i option of a golden report: i = top/2."""
    return ["--i", str(get(spec).ring().base.top // 2)]


def test_every_spec_has_a_golden_file():
    for directory in DIRECTORIES:
        on_disk = {name[:-len(".json")]
                   for name in os.listdir(os.path.join(GOLDEN, directory))}
        assert set(SPECS) <= on_disk, directory


def _assert_matches_golden(command, spec, capsys, monkeypatch, options=(),
                           directory=None):
    monkeypatch.delenv("QTK_SEED", raising=False)
    code = main([command, spec, *options])
    out = capsys.readouterr().out.encode("utf-8")
    with open(os.path.join(GOLDEN, directory or command, spec + ".json"), "rb") as fh:
        assert out == fh.read()
    assert code == 0


@pytest.mark.parametrize("spec", SPECS)
def test_check_all_matches_golden(spec, capsys, monkeypatch):
    _assert_matches_golden("check-all", spec, capsys, monkeypatch)


@pytest.mark.parametrize("spec", SPECS)
def test_brion_matches_golden(spec, capsys, monkeypatch):
    _assert_matches_golden("brion", spec, capsys, monkeypatch)


@pytest.mark.parametrize("spec", SPECS)
def test_potential_matches_golden(spec, capsys, monkeypatch):
    _assert_matches_golden("potential", spec, capsys, monkeypatch)


@pytest.mark.parametrize("spec", SPECS)
def test_potential_direct_matches_golden(spec, capsys, monkeypatch):
    _assert_matches_golden("potential", spec, capsys, monkeypatch, ["--mode", "direct"],
                           directory="potential-direct")


@pytest.mark.parametrize("spec", SPECS)
def test_bkk_matches_golden(spec, capsys, monkeypatch):
    _assert_matches_golden("bkk", spec, capsys, monkeypatch,
                           ["--gamma", "1", *i_args(spec), *h_args(spec)])


@pytest.mark.parametrize("spec", SPECS)
def test_volume_matches_golden(spec, capsys, monkeypatch):
    _assert_matches_golden("volume", spec, capsys, monkeypatch, h_args(spec))


@pytest.mark.parametrize("spec", SPECS)
def test_horizontal_matches_golden(spec, capsys, monkeypatch):
    _assert_matches_golden("horizontal", spec, capsys, monkeypatch,
                           [*h_args(spec), *i_args(spec)])


@pytest.mark.parametrize("spec", SPECS)
def test_ann_hilbert_matches_golden(spec, capsys, monkeypatch):
    _assert_matches_golden("ann-hilbert", spec, capsys, monkeypatch)


@pytest.mark.parametrize("spec", SPECS)
def test_ann_generators_matches_golden(spec, capsys, monkeypatch):
    _assert_matches_golden("ann-generators", spec, capsys, monkeypatch)


@pytest.mark.parametrize("spec", SPECS)
def test_betti_matches_golden(spec, capsys, monkeypatch):
    _assert_matches_golden("betti", spec, capsys, monkeypatch)


@pytest.mark.parametrize("spec", SPECS)
def test_validate_matches_golden(spec, capsys, monkeypatch):
    _assert_matches_golden("validate", spec, capsys, monkeypatch)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_catalog_matches_golden(fmt, capsys):
    code = main(["catalog", "--format", fmt])
    out = capsys.readouterr().out.encode("utf-8")
    with open(os.path.join(GOLDEN, "catalog", f"catalog.{fmt}"), "rb") as fh:
        assert out == fh.read()
    assert code == 0


def _assert_fan_matches_golden(command, name, capsys, monkeypatch):
    with open(fans.bundle_path(name), encoding="utf-8") as fh:
        assert fh.read() == fans.bundle_text(*fans.PINNED[name])
    monkeypatch.delenv("QTK_SEED", raising=False)
    monkeypatch.chdir(fans.GOLDEN_DIR)
    code = main([command, os.path.basename(fans.bundle_path(name))])
    out = capsys.readouterr().out.encode("utf-8")
    with open(fans.report_path(name, command), "rb") as fh:
        assert out == fh.read()
    assert code == 0


@pytest.mark.parametrize("name", sorted(fans.PINNED))
def test_generated_fan_brion_matches_golden(name, capsys, monkeypatch):
    _assert_fan_matches_golden("brion", name, capsys, monkeypatch)


@pytest.mark.parametrize("name", sorted(fans.PINNED))
def test_generated_fan_validate_matches_golden(name, capsys, monkeypatch):
    _assert_fan_matches_golden("validate", name, capsys, monkeypatch)


@pytest.mark.parametrize("name", sorted(fans.PINNED))
def test_generated_fan_betti_matches_golden(name, capsys, monkeypatch):
    _assert_fan_matches_golden("betti", name, capsys, monkeypatch)
