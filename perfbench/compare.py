"""Compare two benchmark records written by run.py.

Usage: python3 perfbench/compare.py OLD.json NEW.json

Records come from .perfbench_out/<workload>-seed<n>-trace<t>.json.  Two
records measured with different row-reduction backends, or of different
workloads or modes, are not comparable: the script refuses them (exit 2).
"""

import json
import sys


def compare(old: dict, new: dict) -> list[str]:
    for key in ("backend", "workload", "trace"):
        if old["stamp"][key] != new["stamp"][key]:
            raise ValueError(f"{key} differs: {old['stamp'][key]!r} vs {new['stamp'][key]!r}")
    lines = []
    for name, m in old["metrics"].items():
        if name not in new["metrics"]:
            lines.append(f"{name}: missing in the new record")
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        lines.append(f"{name}: {a:.6g} -> {b:.6g} {m['unit']} ({change})")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    try:
        lines = compare(*records)
    except ValueError as exc:
        sys.stderr.write(f"refusing to compare: {exc}\n")
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
