"""One workload in a fresh interpreter.

Imports floqcc from the checkout's ``src``, builds and validates the
workload's configurations and prints ``READY``; then solves the points
round after round, renders each round as the CLI would, checks every
result, and prints one JSON line describing the run::

    python3 benchmarks/worker.py --workload fig2_sweep --seed 1 --setup-only
    python3 benchmarks/worker.py --workload fig2_sweep --seed 1 --seconds 10
    python3 benchmarks/worker.py --workload fig2_sweep --seed 1 --rounds 2 --trace spans.json

With ``--seconds`` the run repeats whole rounds until that much time has
passed (at least one round); with ``--rounds`` it runs exactly that many.
``benchmarks/run.py`` drives this script; run it directly only to debug.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, point_fields, point_values

import checks

SRC = Path(__file__).resolve().parent.parent / "src"


def import_floqcc():
    """floqcc from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import floqcc

    if Path(floqcc.__file__).resolve().parent != (SRC / "floqcc").resolve():
        raise SystemExit(f"floqcc imported from {floqcc.__file__}, not from {SRC}")
    return floqcc


def point_record(p) -> dict:
    """The plain record of one point that the checks read."""
    cfg, r, d = p.config, p.report, p.diagnostics
    rec = {
        "ok": p.ok,
        "error": p.error,
        "omegaL": cfg.omegaL,
        "omega0": cfg.omega0,
        "beta_c": cfg.beta_c,
        "beta_h": cfg.beta_h,
        "d_h": cfg.d_h,
        "omega_cc": p.omega_cc,
        "converged": p.converged,
    }
    if r is not None:
        rec.update(
            qbar_c=r.qbar_c,
            qbar_h=r.qbar_h,
            wbar=r.wbar,
            sigma_bar=r.sigma_bar,
            regime=r.regime.value if r.regime is not None else None,
            n_mean=r.n_mean,
            thermal_residual=r.thermal_residual,
        )
    if d is not None:
        rec.update(
            cc_flow_avg=d.cc_flow_avg,
            gates=dict(d.gates),
            n_fock=d.n_fock,
            k_ext=d.k_ext,
            k_rho=d.k_rho,
            route=d.method,
        )
    return rec


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "FLOQCC_WORKERS": os.environ.get("FLOQCC_WORKERS"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    length = parser.add_mutually_exclusive_group(required=True)
    length.add_argument("--setup-only", action="store_true")
    length.add_argument("--seconds", type=float)
    length.add_argument("--rounds", type=int)
    parser.add_argument("--trace", metavar="FILE", help="record spans, write them to FILE")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    floqcc = import_floqcc()
    from floqcc import cli, pipeline

    configs = []
    for value in point_values(workload, args.seed):
        cfg = replace(floqcc.RunConfig(), **point_fields(workload, value))
        cfg.validate()
        configs.append(cfg)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    run_point, render_csv, render_json = pipeline.run_point, cli.render_csv, cli.render_json
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run_point = tracer.wrap("pipeline.run_point", run_point)
        render_csv = tracer.wrap("cli.render_csv", render_csv)
        render_json = tracer.wrap("cli.render_json", render_json)

    mode = configs[0].mode
    times: list[float] = []
    failed: list[bool] = []
    problems: list[str] = []
    facts: list[dict] = []
    wall = 0.0
    rounds = 0
    start = perf_counter()
    while (rounds < args.rounds) if args.rounds else (rounds == 0 or perf_counter() - start < args.seconds):
        t_round = perf_counter()
        points, first_span = [], []
        for cfg in configs:
            first_span.append(len(tracer.spans) if tracer else 0)
            t = perf_counter()
            points.append(run_point(cfg))
            times.append(perf_counter() - t)
        csv_text = render_csv(points, mode)
        render_json(configs[0], points)
        wall += perf_counter() - t_round
        rounds += 1

        records = [point_record(p) for p in points]
        for rec in records:
            found = workload.check_point(rec) if rec["ok"] else []
            failed.append(not rec["ok"] or bool(found))
            problems += [f"omegaL={rec['omegaL']:.6f}: {msg}" for msg in found]
        problems += workload.check_round(records) + checks.check_csv(csv_text, mode, records)
        if rounds == 1:
            keys = ("omegaL", "ok", "error", "n_fock", "k_ext", "k_rho", "route", "regime")
            facts = [{k: rec.get(k) for k in keys} for rec in records]
            if tracer:
                ends = first_span[1:] + [len(tracer.spans)]
                for f, a, b in zip(facts, first_span, ends):
                    f.update(tracer.problem_sizes(a, b))

    result = {
        "rounds": rounds,
        "wall_s": wall,
        "point_s": times,
        "point_failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points": facts,
        "machine": machine_facts(),
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.summary(rounds, len(times))
        result["self_s"] = tracer.self_times()
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "points": facts}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
