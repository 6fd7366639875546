"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RUNS.jsonl        # run-to-run spread only

Each file holds records appended by `run.py --record`.  Run the two sides
alternately (base, new, base, new, ...) with the same seeds; the i-th base run
of a workload is paired with its i-th new run.  For every workload and
end-to-end metric of BENCHMARK.json this prints both medians and quartiles,
the share of pairs the new side wins (ties count for neither), and a verdict:

* improved   -- new wins at least 9 in 10 pairs and its median is better by
                more than the base's quartile distance;
* unresolved -- either side's quartile distance exceeds the metric's bound,
                unless every new run beats every base run;
* worse      -- the new median is worse than the base median by more than
                the bound (a share of the base median);
* unchanged  -- otherwise.

With one file it prints, per workload and metric, the median and the spread
(quartile distance over median) of its runs beside the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"] == 0:
            out.setdefault(record["workload"], []).append(record)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = 1 if better == "higher" else -1  # sign * (new - base) > 0 is a gain
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    win_frac = wins / len(pairs)
    all_better = (min(new) > max(base)) if sign > 0 else (max(new) < min(base))
    spread = max((b3 - b1) / abs(bmed), (n3 - n1) / abs(nmed))
    worse_by = -sign * (nmed - bmed) / abs(bmed)
    if win_frac >= 0.9 and sign * (nmed - bmed) > (b3 - b1):
        return "improved", win_frac
    if spread > bound and not all_better:
        return "unresolved", win_frac
    if worse_by > bound:
        return "worse", win_frac
    return "unchanged", win_frac


def spreads(runs: dict[str, list[dict]], spec: dict) -> None:
    print(f"{'workload':<18} {'metric':<12} {'median':>12} {'spread':>8} {'bound':>6}  runs")
    for workload in sorted(runs):
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[workload]]
            q1, med, q3 = quartiles(values)
            print(f"{workload:<18} {metric['name']:<12} {med:>12.5g} "
                  f"{(q3 - q1) / abs(med):>8.4f} {metric['bound']:>6}  {len(values)}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        spreads(load(argv[0]), spec)
        return 0
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':<18} {'metric':<12} {'base q1/med/q3':>32} {'new q1/med/q3':>32} "
          f"{'wins':>5} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bv = [r["metrics"][name]["value"] for r in base[workload]]
            nv = [r["metrics"][name]["value"] for r in new[workload]]
            result, win_frac = verdict(bv, nv, metric["better"], metric["bound"])
            bq = "/".join(f"{x:.4g}" for x in quartiles(bv))
            nq = "/".join(f"{x:.4g}" for x in quartiles(nv))
            print(f"{workload:<18} {name:<12} {bq:>32} {nq:>32} {win_frac:>5.2f} "
                  f"{metric['bound']:>6}  {result} (n={len(bv)}/{len(nv)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
