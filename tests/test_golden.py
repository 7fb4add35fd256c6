"""`qtk check-all` reports compared byte for byte against committed files.

The files under tests/golden/check-all were written once from
`qtk check-all <spec>` (default samples and seed) and are never regenerated
by a refactor: any change in a report means a change in the mathematics.
"""

import os

import pytest

from qtk.catalog import all_instances
from qtk.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "check-all")
EXTRA_SPECS = ["cp2-bundle-over-cp1?a=1,b=2"]
SPECS = sorted({inst.label for inst in all_instances()} | set(EXTRA_SPECS))


def test_every_spec_has_a_golden_file():
    on_disk = {name[:-len(".json")] for name in os.listdir(GOLDEN)}
    assert set(SPECS) <= on_disk


@pytest.mark.parametrize("spec", SPECS)
def test_check_all_matches_golden(spec, capsys, monkeypatch):
    monkeypatch.delenv("QTK_SEED", raising=False)
    code = main(["check-all", spec])
    out = capsys.readouterr().out.encode("utf-8")
    with open(os.path.join(GOLDEN, spec + ".json"), "rb") as fh:
        assert out == fh.read()
    assert code == 0
