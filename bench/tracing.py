"""Spans around the calls into each `dwigner` module, recorded from outside.

The package's modules bind each other's functions by name (`from .weyl import
extract_symplectic`), so a wrapper is rebound under every name in every
`dwigner` module that holds the original function, and put back afterwards.
Spans (group, start, end, parent) stay in memory; `summarize` turns one
pass's spans into per-layer self times and call counts.  A target that no
longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# span group -> (module, function) pairs; "cli" is the root of every command
TARGETS = {
    "cli": [("cli", "main")],
    "circuits.parse": [
        ("circuits", "parse_circuit_file"),
        ("circuits", "parse_circuit"),
        ("circuits", "parse_slice_file"),
    ],
    "circuits.validate": [("circuits", "validate_circuit")],
    "weyl.extract_symplectic": [("weyl", "extract_symplectic")],
    "weyl.clifford_generator": [("weyl", "clifford_generator")],
    "wigner.forward": [
        ("wigner", "wigner_of_state"),
        ("wigner", "wigner_of_effect"),
        ("wigner", "negativity_F"),
    ],
    "wigner.inverse": [("wigner", "state_from_wigner")],
    "stabilizer.mub": [("stabilizer", "mub_stabilizer_states")],
    "geometry.slice_scan": [("geometry", "slice_scan")],
    "geometry.hull": [("geometry", "hull_membership")],
    "exactlp.feasible": [("exactlp", "feasible_nonnegative")],
    "simulate.sample": [("simulate", "sample_classical")],
    "simulate.oracle": [("simulate", "run_oracle")],
    "simulate.compare": [("simulate", "compare_distributions")],
    "simulate.distill_build": [("simulate", "random_distill_instance")],
    "simulate.distill_step": [("simulate", "distill_step")],
}
LAYER_GROUPS = [g for g in TARGETS if g != "cli"]

# counters filled from return values and exceptions at the span boundaries
COUNTERS = (
    "geometry.hull_disputed",
    "geometry.solver_failures",
    "simulate.field_mults",
    "simulate.field_adds",
    "simulate.uniform_bytes",
    "simulate.distill_skip",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [group, start, end, parent index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list = []  # "module.function" targets not found
        self._stack: list = []
        self._rebound: list = []  # (module, name, original)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "dwigner" or name.startswith("dwigner."))
        ]
        self.missing = []
        for group, targets in TARGETS.items():
            for mod_name, func_name in targets:
                home = sys.modules.get(f"dwigner.{mod_name}")
                original = getattr(home, func_name, None)
                if not callable(original):
                    self.missing.append(f"{mod_name}.{func_name}")
                    continue
                wrapper = self._wrap(group, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            self._rebound.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._rebound):
            setattr(module, name, original)
        self._rebound = []

    def reset(self) -> None:
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, group: str, fn):
        stack, clock = self._stack, time.perf_counter
        after = {"geometry.hull": self._after_hull, "simulate.sample": self._after_sample}.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([group, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_exception(group, exc)
                raise
            finally:
                self.spans[index][2] = clock()
                stack.pop()
            if after is not None:
                after(result, fn, args, kwargs)
            return result

        return wrapper

    # -- counters --------------------------------------------------------------

    def _count_exception(self, group: str, exc: Exception) -> None:
        name = type(exc).__name__
        if group == "geometry.hull" and name == "SolverFailure":
            self.counters["geometry.solver_failures"] += 1
        elif group == "simulate.distill_step" and name == "ZeroProbabilityBranch":
            self.counters["simulate.distill_skip"] += 1

    def _after_hull(self, cert, fn, args, kwargs) -> None:
        self.counters["geometry.hull_disputed"] += int(bool(getattr(cert, "disputed", False)))

    def _after_sample(self, report, fn, args, kwargs) -> None:
        self.counters["simulate.field_mults"] += int(getattr(report, "field_mults", 0))
        self.counters["simulate.field_adds"] += int(getattr(report, "field_adds", 0))
        # computed, not measured: the shots x 2*max_registers float64 uniforms
        # drawn up front
        try:
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            size = int(bound["shots"]) * 2 * int(bound["prog"].max_registers) * 8
        except (TypeError, KeyError, AttributeError):
            return
        self.counters["simulate.uniform_bytes"] = max(self.counters["simulate.uniform_bytes"], size)


def summarize(spans: list, pass_wall: float) -> dict:
    """Per-layer self time (`<group>_s`) and outermost call counts (`<group>_calls`).

    A span's self time is its duration minus the durations of its child spans.
    A call counts once however deep it recurses into its own group.
    `cli.self_s` is the pass time that no layer span covers.
    """
    child_time = [0.0] * len(spans)
    for group, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for group in LAYER_GROUPS:
        out[f"{group}_s"] = 0.0
        out[f"{group}_calls"] = 0
    covered = 0.0
    for i, (group, start, end, parent) in enumerate(spans):
        if group == "cli":
            covered += child_time[i]
            continue
        out[f"{group}_s"] += end - start - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != group:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{group}_calls"] += 1
    out["cli.self_s"] = pass_wall - covered
    return out


def inclusive_time(spans: list, groups) -> float:
    """Time inside the outermost spans of the given groups."""
    groups = set(groups)
    total = 0.0
    for group, start, end, parent in spans:
        if group not in groups:
            continue
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] not in groups:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total += end - start
    return total
