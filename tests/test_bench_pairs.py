"""tools/bench_pairs.py on synthetic records: no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "s_per_point", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "speed", "unit": "1/s", "better": "higher", "bound": 0.05},
]


def record(s_per_point, speed, correct=True):
    return {
        "correct": correct, "attempted": 6, "failed": 2,
        "metrics": {"s_per_point": {"value": s_per_point, "unit": "s"},
                    "speed": {"value": speed, "unit": "1/s"}},
    }


@pytest.fixture
def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for path in (parent, change):
        path.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    return parent, change


def fake_runner(values, calls):
    """A runner that returns ``values[(side, seed)]`` and logs each call."""
    def run(checkout, workload, seed):
        side = checkout.name
        calls.append((side, seed))
        return values.get((side, seed))
    return run


def test_parent_runs_first_on_even_seeds(checkouts):
    calls = []
    values = {(side, seed): record(1.0, 1.0) for side in ("parent", "change") for seed in (4, 5, 6)}
    code = bench_pairs.main([*map(str, checkouts), "--workload", "w", "--seeds", "4-6"],
                            runner=fake_runner(values, calls))
    assert code == 0
    assert calls == [("parent", 4), ("change", 4), ("change", 5), ("parent", 5),
                     ("parent", 6), ("change", 6)]


def test_quartiles_and_wins_with_ties(checkouts, capsys):
    # s_per_point: the change wins seeds 1 and 2, ties seed 3, loses seed 4;
    # speed (higher is better): it wins seed 4 only, and ties the rest
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 1.5, 3.0, 5.0]
    values = {}
    for seed, p, c in zip(range(1, 5), parent, change):
        values[("parent", seed)] = record(p, 1.0)
        values[("change", seed)] = record(c, 2.0 if seed == 4 else 1.0)
    code = bench_pairs.main([*map(str, checkouts), "--workload", "w", "--seeds", "1-4"],
                            runner=fake_runner(values, []))
    out = capsys.readouterr().out
    assert code == 0
    assert "4 pairs" in out
    # inclusive quartiles of 1, 2, 3, 4 and of 0.5, 1.5, 3, 5
    assert "parent 1.75 / 2.5 / 3.25; change 1.25 / 2.25 / 3.5; change wins 2/4" in out
    assert "change wins 1/4" in out
    # the parent's spread 1.5 / 2.5 exceeds s_per_point's bound 0.25, and
    # speed's median 1.0 -> 1.0 moves by nothing
    assert "change wins 2/4; unresolved\n" in out
    assert "change wins 1/4; no worse\n" in out
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert "seed 1 parent: correct True, failed 2/6" in out


@pytest.mark.parametrize("broken", ["missing", "incorrect"])
def test_exit_status(checkouts, capsys, broken):
    values = {(side, 2): record(1.0, 1.0) for side in ("parent", "change")}
    values[("change", 2)] = None if broken == "missing" else record(1.0, 1.0, correct=False)
    code = bench_pairs.main([*map(str, checkouts), "--workload", "w", "--seeds", "2"],
                            runner=fake_runner(values, []))
    assert code == 1
    out = capsys.readouterr().out
    assert ("no result line" in out) == (broken == "missing")


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # the median 1.0 -> 1.3 is worse by 0.3 > 0.25
        ([1.0] * 10, [1.3] * 10, "lower", "worse"),
        ([1.0] * 10, [0.7] * 10, "higher", "worse"),
        # within the bound: 1.2 is worse by 0.2, and a tie is no gain
        ([1.0] * 10, [1.2] * 10, "lower", "no worse"),
        ([1.0] * 10, [1.0] * 10, "lower", "no worse"),
        # the parent's quartiles 0.85 / 1.0 / 1.25 spread 0.4 > 0.25
        ([0.6, 0.7, 0.8, 1.0, 1.0, 1.0, 1.1, 1.3, 1.4, 1.5], [1.0] * 10, "lower", "unresolved"),
        # ... unless every change run beats every parent run: then a gain
        ([0.6, 0.7, 0.8, 1.0, 1.0, 1.0, 1.1, 1.3, 1.4, 1.5], [0.5] * 10, "lower", "gain"),
        # 9 of 10 wins and a median better by 0.1 > the spread 0.015
        ([1.0, 0.99, 1.01] * 3 + [1.0], [0.9] * 9 + [1.1], "lower", "gain"),
        ([1.0, 0.99, 1.01] * 3 + [1.0], [1.1] * 9 + [0.9], "higher", "gain"),
        # 8 of 10 wins is no gain
        ([1.0, 0.99, 1.01] * 3 + [1.0], [0.9] * 8 + [1.1] * 2, "lower", "no worse"),
        # 10 of 10 wins by less than the spread 0.03 is no gain
        ([1.0, 0.98, 1.02] * 3 + [1.0], [p - 0.005 for p in [1.0, 0.98, 1.02] * 3 + [1.0]],
         "lower", "no worse"),
    ],
)
def test_verdicts(parent, change, better, expected):
    assert bench_pairs.verdict(parent, change, better, 0.25) == expected


def test_verdict_is_printed(checkouts, capsys):
    values = {}
    for seed in range(1, 11):
        values[("parent", seed)] = record(1.0, 1.0)
        values[("change", seed)] = record(1.5, 1.0)
    code = bench_pairs.main([*map(str, checkouts), "--workload", "w", "--seeds", "1-10"],
                            runner=fake_runner(values, []))
    out = capsys.readouterr().out
    assert code == 0
    assert "s_per_point (s, lower is better): parent 1 / 1 / 1; change 1.5 / 1.5 / 1.5; " \
        "change wins 0/10; worse\n" in out
    assert "speed (1/s, higher is better): parent 1 / 1 / 1; change 1 / 1 / 1; " \
        "change wins 0/10; no worse\n" in out


def test_failed_share(checkouts, capsys):
    # two complete pairs and one whose change run printed nothing: the
    # shares sum the complete pairs only, 2 + 2 of 6 + 6 on either side
    # unless the change fails more
    values = {}
    for seed in (1, 2, 3):
        values[("parent", seed)] = record(1.0, 1.0)
        values[("change", seed)] = record(1.0, 1.0)
    values[("change", 3)] = None
    argv = [*map(str, checkouts), "--workload", "w", "--seeds", "1-3"]
    code = bench_pairs.main(argv, runner=fake_runner(values, []))
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1] == "failed share: parent 4/12, change 4/12; no worse"
    values[("change", 2)] = {**record(1.0, 1.0), "failed": 3}
    bench_pairs.main(argv, runner=fake_runner(values, []))
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "failed share: parent 4/12, change 5/12; worse"
    # a smaller share on the change's side is no worse
    values[("change", 2)] = {**record(1.0, 1.0), "failed": 0}
    bench_pairs.main(argv, runner=fake_runner(values, []))
    assert capsys.readouterr().out.splitlines()[-1] == (
        "failed share: parent 4/12, change 2/12; no worse"
    )


def test_seed_ranges():
    assert list(bench_pairs.parse_seeds("27001-27003")) == [27001, 27002, 27003]
    assert list(bench_pairs.parse_seeds("5")) == [5]
