"""Alternating benchmark pairs of two checkouts of floqcc.

    python3 tools/bench_pairs.py PARENT CHANGE --workload fig2_sweep --seeds 1-8

For each seed, runs ``benchmarks/run.py --trace 0`` once in each checkout, at
the run length the benchmark sets, the parent first on even seeds and the
change first on odd ones, so that a drift of the machine weighs on both sides
alike.  Then, for each end-to-end
metric that ``BENCHMARK.json`` declares, prints both sides' lower quartile,
median and upper quartile, the change's wins out of all pairs (a tie
counts for neither side) and a verdict by the metric's ``bound``
(``verdict``), after each run's ``correct`` flag and failed share, and then
both sides' failed share summed over the pairs, ``worse`` when the change's
is larger (``failed_share``).  Exits 1
when a run prints no result line or reports ``correct: false``.  Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

SIDES = ("parent", "change")


def parse_seeds(text: str) -> range:
    """``A-B`` as the seeds A..B inclusive; a single number as itself."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def run_order(seed: int) -> tuple[str, str]:
    """The sides in the order they run at ``seed``: the parent first on
    even seeds."""
    return SIDES if seed % 2 == 0 else SIDES[::-1]


def run_once(checkout: Path, workload: str, seed: int) -> dict | None:
    """The result record (the last line of standard output) of one
    ``benchmarks/run.py --trace 0`` run in ``checkout``; None when it
    prints none."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) and "metrics" in record else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs where the change is strictly better; ties count for neither."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The change's verdict on one metric from its runs and the parent's,
    paired in order; ``bound`` and the quartile spread are relative to the
    parent's median.  The first that holds of:

    - ``worse``: the change's median is worse by more than ``bound``;
    - ``unresolved``: the parent's quartile spread exceeds ``bound``, unless
      every change run beats every parent run;
    - ``gain``: the change wins at least 9 of 10 pairs and its median is
      better by more than the parent's quartile spread;
    - ``no worse``.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, median, q3 = quartiles(parent)
    scale = abs(median) or 1.0
    worsening = sign * (statistics.median(change) - median) / scale
    spread = (q3 - q1) / scale
    if worsening > bound:
        return "worse"
    if spread > bound and not max(sign * c for c in change) < min(sign * p for p in parent):
        return "unresolved"
    if 10 * wins(parent, change, better) >= 9 * len(parent) and -worsening > spread:
        return "gain"
    return "no worse"


def failed_share(pairs: list[tuple[dict, dict]]) -> str:
    """Both sides' failed points out of those attempted, summed over
    ``pairs``, and ``worse`` when the change's share is larger."""
    (fp, ap), (fc, ac) = (
        (sum(rec["failed"] for rec in side), sum(rec["attempted"] for rec in side))
        for side in zip(*pairs)
    )
    # fc / ac > fp / ap, without dividing by a count of 0
    worse = fc * ap > fp * ac
    return f"failed share: parent {fp}/{ap}, change {fc}/{ac}; {'worse' if worse else 'no worse'}"


def main(argv: list[str] | None = None, runner: Callable = run_once) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))

    ok = True
    pairs = []  # (parent record, change record) per complete pair
    for seed in args.seeds:
        got = {}
        for side in run_order(seed):
            rec = runner(checkouts[side], args.workload, seed)
            if rec is None:
                print(f"seed {seed} {side}: no result line")
                ok = False
                continue
            got[side] = rec
            print(f"seed {seed} {side}: correct {rec['correct']}, "
                  f"failed {rec['failed']}/{rec['attempted']}")
            ok &= rec["correct"] is True
        if len(got) == 2:
            pairs.append((got["parent"], got["change"]))

    print(f"{args.workload}: {len(pairs)} pairs; quartiles q1 / median / q3")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [[rec["metrics"][name]["value"] for rec in pair] for pair in pairs]
        if not values:
            continue
        parent, change = (list(side) for side in zip(*values))
        cells = ["{:.4g} / {:.4g} / {:.4g}".format(*quartiles(v)) for v in (parent, change)]
        print(f"  {name} ({metric['unit']}, {metric['better']} is better): parent {cells[0]}; "
              f"change {cells[1]}; change wins {wins(parent, change, metric['better'])}"
              f"/{len(pairs)}; {verdict(parent, change, metric['better'], metric['bound'])}")
    if pairs:
        print(failed_share(pairs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
