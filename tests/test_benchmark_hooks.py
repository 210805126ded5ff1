"""The benchmark's hooks into floqcc: ``benchmarks/tracing.py`` patches
names in the program and ``benchmarks/worker.py`` reads its results, so a
change in ``src/`` that breaks ``benchmarks/run.py --trace 1`` or the
worker fails here.

    PYTHONPATH=src python -m pytest tests/test_benchmark_hooks.py -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import scipy.linalg

from floqcc import generator, pipeline
from floqcc.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import checks  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402


def patched_names():
    return (
        generator.CountingLiouvillian.apply_component,
        generator.steady_state,
        scipy.linalg.lu_factor,
    )


def test_traced_point_feeds_the_checks():
    originals = patched_names()
    tracer = Tracer()
    try:
        tracer.install()
        run_point = tracer.wrap("pipeline.run_point", pipeline.run_point)
        point = run_point(replace(RunConfig(), n_fock=4, convergence="off"))
        assert point.ok, point.error
        assert isinstance(checks.check_fig2_point(worker.point_record(point)), list)
        layers = tracer.summary(1, 1)
    finally:
        tracer.uninstall()
    assert all(now is then for now, then in zip(patched_names(), originals))
    # run.py adds the tracer's own overhead; every other layer comes from here
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(layers) == {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    # every span-timed layer this point runs took time: a call that no
    # longer goes through a patched name would read 0 here
    ran = [
        "floquet.build_s", "floquet.solve_s", "floquet.jumps_s", "generator.kernels_s",
        "generator.steady_s", "generator.block_lu_s", "generator.heat_s", "bath.map_s",
        "model.build_s", "thermo.report_s",
    ]
    assert {name: layers[name][0] for name in ran if not layers[name][0] > 0} == {}
