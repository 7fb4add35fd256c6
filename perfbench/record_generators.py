"""Record the ann-generators oracle: minimal generator counts per weighted
degree for every instance the generators workload can draw.

Run from the repository root at a commit whose output is trusted:
    python3 perfbench/record_generators.py
It rewrites perfbench/expected_generators.json.
"""

import json
import os
import subprocess
import sys

from workloads import VARIANTS, all_variants

HERE = os.path.dirname(os.path.abspath(__file__))
SPECS = ["cp3", "cp1xcp1-bundle"] + [s for family in VARIANTS for s in all_variants(family)]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
    table = {}
    for spec in SPECS:
        out = subprocess.run([sys.executable, "-m", "qtk.cli", "ann-generators", spec],
                             capture_output=True, text=True, env=env, check=True).stdout
        gens = json.loads(out)["result"]["generators_by_weighted_degree"]
        table[spec] = {d: len(g) for d, g in gens.items()}
    with open(os.path.join(HERE, "expected_generators.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
