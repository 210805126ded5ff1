"""floqcc's benchmark: one workload per call.

    python3 benchmarks/run.py --workload fig2_sweep --seed 1 --seconds 10 --trace 0

Every workload runs in a fresh worker process (``worker.py``) with
FLOQCC_WORKERS unset, repeating whole rounds of its points for
``--seconds`` and checking every result.  ``--trace 0`` reports the
end-to-end metrics with tracing off; ``--trace 1`` runs the workload once
untraced and once traced for the same number of rounds, and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The lines before it hold the
machine facts and each point's problem sizes; the whole record, and with
``--trace 1`` every span, is also written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# fresh interpreters timed to READY per run; setup_s is their median
SETUP_SAMPLES = 5
# a run must end within 180 s; the workers are killed at this point
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run ``worker.py`` with ``args``; return the seconds from its start to
    its READY line, and the JSON record it prints last (None if it prints
    none)."""
    env = dict(os.environ)
    env.pop("FLOQCC_WORKERS", None)
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    watchdog = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        ready = perf_counter() - t0
        tail = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready_line.strip() != "READY" or code != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    return ready, json.loads(tail[-1]) if tail else None


def source_facts() -> dict:
    """Git commit of the checkout (None outside a git repository) and a
    hash of the program's sources, which identifies it either way."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "floqcc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def median_point_s(times: list[float], failed: list[bool]) -> float:
    """Nearest-rank median of the per-point times, a failed point ranking
    as slower than every solved one."""
    ranked = sorted(zip(failed, times))
    is_failed, t = ranked[math.ceil(len(ranked) / 2) - 1]
    if is_failed:
        raise WorkerError("more than half of the points failed")
    return t


def end_to_end(rec: dict, setup: list[float]) -> dict:
    solved = len(rec["point_s"]) - sum(rec["point_failed"])
    if solved == 0:
        raise WorkerError("no point solved")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "s_per_point": (rec["wall_s"] / solved, "s"),
        "point_s_p50": (median_point_s(rec["point_s"], rec["point_failed"]), "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="floqcc benchmark: one workload per call")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "floqcc" / "__init__.py").is_file():
        print(f"floqcc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace == 0:
            setup = [run_worker(base + ["--setup-only"], deadline)[0]
                     for _ in range(SETUP_SAMPLES - 1)]
            ready, rec = run_worker(base + ["--seconds", str(args.seconds)], deadline)
            metrics = end_to_end(rec, setup + [ready])
        else:
            _, plain = run_worker(base + ["--seconds", str(args.seconds)], deadline)
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            _, rec = run_worker(
                base + ["--rounds", str(plain["rounds"]), "--trace", str(spans)], deadline
            )
            metrics = {name: tuple(v) for name, v in rec["layers"].items()}
            overhead = (rec["wall_s"] - plain["wall_s"]) / rec["rounds"]
            metrics["trace.overhead_s"] = (overhead, "s")
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for problem in rec["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = len(rec["point_s"]), sum(rec["point_failed"])
    result = {
        "correct": not rec["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    machine = {**rec["machine"], **source_facts()}
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rec["rounds"],
        "round_s": rec["wall_s"] / rec["rounds"],
        "machine": machine,
        "points": rec["points"],
        "self_s": rec.get("self_s"),
        **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"machine": machine}))
    print(json.dumps({"rounds": rec["rounds"], "points": rec["points"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
