"""`qtk check-all`, `qtk brion` and `qtk potential` reports compared byte for
byte against committed files.

The files under tests/golden/<command> were written once from
`qtk <command> <spec>` (default options, samples and seed) and are never
regenerated by a refactor: any change in a report means a change in the
mathematics.  The brion reports also cover `fiber_quotient_dims`, which
check-all does not print.  The potential reports pin every coefficient of
the integral potential; a fault shared by both potential builders (and so
invisible to comparing them) shows here.
"""

import os

import pytest

from qtk.catalog import all_instances
from qtk.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
COMMANDS = ["check-all", "brion", "potential"]
EXTRA_SPECS = ["cp2-bundle-over-cp1?a=1,b=2"]
SPECS = sorted({inst.label for inst in all_instances()} | set(EXTRA_SPECS))


def test_every_spec_has_a_golden_file():
    for command in COMMANDS:
        on_disk = {name[:-len(".json")]
                   for name in os.listdir(os.path.join(GOLDEN, command))}
        assert set(SPECS) <= on_disk, command


def _assert_matches_golden(command, spec, capsys, monkeypatch):
    monkeypatch.delenv("QTK_SEED", raising=False)
    code = main([command, spec])
    out = capsys.readouterr().out.encode("utf-8")
    with open(os.path.join(GOLDEN, command, spec + ".json"), "rb") as fh:
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
