"""Compare two results written by ``run.py --workload all --out FILE``.

    python3 perfbench/compare.py old.json new.json

A changed cell count or verdict digest is reported as a change in
behaviour, not in speed.  Each end-to-end metric is shown as new over old
and flagged when it is worse by more than its bound in BENCHMARK.json.
Exit code 1 when behaviour changed or a metric regressed beyond its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def compare(old: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    lines: list[str] = []
    bad = False
    for workload in [w for w in old if w in new]:
        before = old[workload]["end_to_end"]
        after = new[workload]["end_to_end"]
        for key in ("cells", "digest"):
            if before["details"][key] != after["details"][key]:
                bad = True
                lines.append(f"{workload}: BEHAVIOUR CHANGE {key} "
                             f"{before['details'][key]} -> {after['details'][key]}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = before["result"]["metrics"][name]["value"]
            b = after["result"]["metrics"][name]["value"]
            ratio = b / a
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            flag = ""
            if worse > metric["bound"]:
                bad = True
                flag = f"  REGRESSION beyond bound {metric['bound']}"
            lines.append(f"{workload:>12}  {name:<14} {a:>12.6g} -> {b:>12.6g} "
                         f"{metric['unit']:<8} x{ratio:.3f}{flag}")
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    lines, bad = compare(old, new, json.loads(BENCHMARK_JSON.read_text()))
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
