"""Spans around the calls into floqcc's modules, recorded from outside the
program.

``Tracer.install`` replaces the names that ``floqcc.pipeline`` imported
from the lower layers, ``generator.steady_state`` (so the GMRES -> LU
fallback, a recursive call, shows as a nested span), the two SciPy
factorizations that ``steady_state`` imports at call time, and
``CountingLiouvillian.apply_component`` (counted, not spanned: it runs
about a thousand times per point).  Spans are kept in memory until the
run ends; ``summary`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import resource
from time import perf_counter

# span name -> the name in floqcc.pipeline that the span replaces
_PIPELINE_CALLS = {
    "bath.map_collective_coordinate": "map_collective_coordinate",
    "model.build_supersystem_fourier": "build_supersystem_fourier",
    "model.build_coupling_operators": "build_coupling_operators",
    "model.fock_truncation_check": "fock_truncation_check",
    "floquet.build_quasienergy_operator": "build_quasienergy_operator",
    "floquet.solve_floquet": "solve_floquet",
    "floquet.decompose_operator": "decompose_operator",
    "generator.build_liouvillian": "build_liouvillian",
    "generator.steady_state": "steady_state",
    "generator.heat_current": "heat_current",
    "generator.periodic_average_rate": "periodic_average_rate",
    "thermo.occupation_statistics": "occupation_statistics",
    "thermo.build_report": "build_report",
}

STEADY = "generator.steady_state"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# facts read from a call's arguments and, when it returned, its result

def _steady_facts(args, kwargs, result) -> dict:
    facts = {"asked": kwargs.get("method", "auto"), "d": args[0].dim}
    if result is not None:
        _, info = result
        facts.update(route=info.method, size=info.size, k_rho=info.k_rho)
    return facts


def _sambe_facts(args, kwargs, result) -> dict:
    if result is None:
        return {}
    return {"sambe_dim": result.matrix.shape[0], "k_ext": result.k_ext}


def _point_facts(args, kwargs, result) -> dict:
    if result is None:
        return {}
    d = result.diagnostics
    facts = {"ok": result.ok}
    if d is not None:
        facts.update(n_fock=d.n_fock, k_ext=d.k_ext, k_rho=d.k_rho, route=d.method)
    return facts


_FACTS = {
    STEADY: _steady_facts,
    "floquet.build_quasienergy_operator": _sambe_facts,
    "pipeline.run_point": _point_facts,
}


class Tracer:
    """Span recorder.  Each span is a dict with ``name``, ``start``,
    ``end`` (perf_counter seconds), ``parent`` (index of the enclosing
    span or None), the process's peak RSS in MB at both ends, and facts
    read from the call's arguments and result."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.matvecs = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        facts = _FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "rss_start_mb": _peak_rss_mb(),
                "start": perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                span["rss_end_mb"] = _peak_rss_mb()
                self._stack.pop()
                if facts is not None:
                    span.update(facts(args, kwargs, result))

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import scipy.linalg
        import scipy.sparse.linalg

        from floqcc import generator, pipeline

        for name, attr in _PIPELINE_CALLS.items():
            self._patch(pipeline, attr, self.wrap(name, getattr(pipeline, attr)))
        self._patch(generator, "steady_state", self.wrap(STEADY, generator.steady_state))
        self._patch(scipy.linalg, "lu_factor", self.wrap("scipy.lu_factor", scipy.linalg.lu_factor))
        self._patch(scipy.sparse.linalg, "splu", self.wrap("scipy.splu", scipy.sparse.linalg.splu))

        apply_component = generator.CountingLiouvillian.apply_component

        @functools.wraps(apply_component)
        def counted(liouv, q, rho):
            self.matvecs += 1
            return apply_component(liouv, q, rho)

        self._patch(generator.CountingLiouvillian, "apply_component", counted)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _within(self, i: int, name: str) -> bool:
        """Whether span ``i`` has an ancestor called ``name``."""
        parent = self.spans[i]["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def problem_sizes(self, first: int, last: int) -> dict:
        """Sizes read from the results of spans ``first`` to ``last - 1``
        (one point): the largest Sambe dimension, and the requested route,
        taken route, Hilbert dimension d and system size of every
        ``steady_state`` call."""
        spans = self.spans[first:last]
        return {
            "sambe_dim": max((s.get("sambe_dim", 0) for s in spans), default=0),
            "steady": [[s.get("asked"), s.get("route"), s.get("d"), s.get("size")]
                       for s in spans if s["name"] == STEADY],
        }

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - child_time[i]
        return out

    def summary(self, rounds: int, attempted: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: times and counts per round of the workload,
        call counts per attempted point, and the peak-RSS rise inside
        ``steady_state`` over the whole run."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        steady_rise = 0.0
        for i, s in enumerate(self.spans):
            key = s["name"]
            if key == STEADY and self._within(i, STEADY):
                key = "fallback"  # the lu re-solve inside a gmres call
            elif key == STEADY:
                steady_rise += s["rss_end_mb"] - s["rss_start_mb"]
            elif key.startswith("scipy.") and not self._within(i, STEADY):
                continue
            total[key] = total.get(key, 0.0) + s["end"] - s["start"]
            calls[key] = calls.get(key, 0) + 1

        def per_round(*names: str) -> float:
            return sum(total.get(n, 0.0) for n in names) / rounds

        return {
            "floquet.build_s": (per_round("floquet.build_quasienergy_operator"), "s"),
            "floquet.solve_s": (per_round("floquet.solve_floquet"), "s"),
            "floquet.solves_per_point": (calls.get("floquet.solve_floquet", 0) / attempted, "count"),
            "floquet.jumps_s": (per_round("floquet.decompose_operator"), "s"),
            "generator.kernels_s": (per_round("generator.build_liouvillian"), "s"),
            "generator.steady_s": (per_round(STEADY), "s"),
            "generator.matvecs": (self.matvecs / rounds, "count"),
            "generator.block_lu_s": (per_round("scipy.lu_factor"), "s"),
            "generator.sparse_lu_s": (per_round("scipy.splu"), "s"),
            "generator.fallbacks": (calls.get("fallback", 0) / rounds, "count"),
            "generator.steady_rss_rise_mb": (steady_rise, "MB"),
            "generator.heat_s": (
                per_round("generator.heat_current", "generator.periodic_average_rate"),
                "s",
            ),
            "pipeline.solves_per_point": (calls.get(STEADY, 0) / attempted, "count"),
            "pipeline.self_s": (self.self_times().get("pipeline.run_point", 0.0) / rounds, "s"),
            "bath.map_s": (per_round("bath.map_collective_coordinate"), "s"),
            "model.build_s": (
                per_round(
                    "model.build_supersystem_fourier",
                    "model.build_coupling_operators",
                    "model.fock_truncation_check",
                ),
                "s",
            ),
            "thermo.report_s": (
                per_round("thermo.occupation_statistics", "thermo.build_report"), "s"
            ),
            "cli.render_s": (per_round("cli.render_csv", "cli.render_json"), "s"),
        }
