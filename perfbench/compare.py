"""Compare two result sets written by run.py --out.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are JSONL files, or directories of them. For every
workload and metric the table gives each side's median and quartiles and
the change of the medians. End-to-end metrics get a verdict by the bounds
in BENCHMARK.json:
  worse       the change's median is worse than the base's by more than the bound
  better      the change wins at least 9 in 10 pairs of runs (paired by seed
              when the sides share seeds, else every run against every run)
              and the medians differ by more than the base's quartile distance
  unresolved  either side spreads wider than the bound between its quartiles,
              and not every run of the change beats every run of the base
  unchanged   otherwise
Per-layer metrics have no bound and get no verdict. The exit code is 1
when any verdict is worse.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import quartiles, relative_spread  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_records(path) -> list:
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        for lineno, line in enumerate(file.read_text(encoding="utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                record["result"]["metrics"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise SystemExit(f"error: {file}:{lineno}: not a run record: {exc}") from None
            records.append(record)
    return records


def samples(records) -> dict:
    """(workload, metric) -> [(seed, value)]."""
    out = defaultdict(list)
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            out[(record["workload"], name)].append((record["seed"], metric["value"]))
    return out


def _pairs(base, change):
    shared = {s for s, _ in base} & {s for s, _ in change}
    if shared:
        return [(a, b) for sa, a in base for sb, b in change if sa == sb and sa in shared]
    return [(a, b) for _, a in base for _, b in change]


def verdict(base, change, better: str, bound: float) -> str:
    """base and change are [(seed, value)]; better is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    a = [v for _, v in base]
    b = [v for _, v in change]
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "worse"
    pairs = _pairs(base, change)
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
        return "better"
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(relative_spread(a), relative_spread(b)) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base_records, change_records, spec) -> tuple[list, bool]:
    rules = {m["name"]: m for m in spec["end_to_end"]}
    base, change = samples(base_records), samples(change_records)
    rows, any_worse = [], False
    for key in sorted(set(base) & set(change)):
        workload, name = key
        qa, qb = quartiles([v for _, v in base[key]]), quartiles([v for _, v in change[key]])
        delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
        rule = rules.get(name)
        word = "-"
        if rule is not None:
            word = verdict(base[key], change[key], rule["better"], rule["bound"])
            any_worse |= word == "worse"
        rows.append((workload, name, qa, len(base[key]), qb, len(change[key]), delta, word))
    return rows, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, any_worse = compare(load_records(argv[0]), load_records(argv[1]), spec)
    print(f"{'workload':14} {'metric':30} {'base median [q1, q3] (n)':>36} "
          f"{'change median [q1, q3] (n)':>36} {'change':>8}  verdict")
    for workload, name, qa, na, qb, nb, delta, word in rows:
        def cell(q, n):
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] ({n})"
        print(f"{workload:14} {name:30} {cell(qa, na):>36} {cell(qb, nb):>36} "
              f"{delta:+8.2%}  {word}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
