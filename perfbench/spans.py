"""Span tracing at the module boundaries of habitopt, from outside ``src/``.

``Tracer.install`` wraps every public function of the tree, market,
preferences, solvers and analysis modules at every place the function is
bound (``habitopt.solvers.spd_bundle``, ``habitopt.cli.spd_bundle``, ...),
plus the scipy entry points the library binds (``linprog``,
``cho_factor``/``cho_solve``, ``brentq``).  The cli layer is the span
``Tracer.command`` puts around each ``cli.main`` call.  Each call
records one span ``(name, layer, start, end, parent, command id)`` in memory;
``uninstall`` restores the original bindings.  A layer is the module a span
belongs to: the defining module for habitopt functions, the binding module
for scipy entry points.  Self time of a span is its duration minus the time
covered by its direct children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

LAYERS = ("tree", "market", "preferences", "solvers", "analysis")
SCIPY_ENTRY_POINTS = {
    "market": ("linprog",),
    "solvers": ("linprog", "cho_factor", "cho_solve", "brentq"),
    "analysis": ("brentq",),
}
# Span names folded into one metric group; every other span is its own group.
GROUPS = {
    "solvers.solve_complete_power": "solvers.closed",
    "solvers.solve_complete_general": "solvers.closed",
    "solvers.solve_exponential_bonds": "solvers.closed",
    "solvers.solve_power_no_endowment": "solvers.closed",
    "solvers.linprog": "solvers.lp",
    "solvers.cho_factor": "solvers.cholesky",
    "solvers.cho_solve": "solvers.cholesky",
    "market.linprog": "market.lp",
}
# Private draw helper counted (not timed) to give generate_scenario's tries.
TRY_COUNTER = ("analysis", "_draw_family")


def _spd_key(cmd, m, beta, objective="uniform", seed=None):
    """One distinct ``spd_bundle`` argument set within a command."""
    return (cmd, id(m), beta.tobytes(), str(objective), seed)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, layer, start, end, parent, cmd]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.group_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.iterations: dict[str, int] = defaultdict(int)
        self.layer_failed: dict[str, int] = defaultdict(int)
        self.spd_keys: set = set()
        self.tries = 0
        self.cmd = -1
        self._stack: list[list] = []       # [span index, group, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def _enter(self, name: str, layer: str) -> list:
        group = GROUPS.get(name, name)
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, layer, 0.0, 0.0, parent, self.cmd])
        frame = [index, group, 0.0]
        self._stack.append(frame)
        self._depth[group] += 1
        self.spans[index][2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, raised: bool) -> float:
        end = time.perf_counter()
        span = self.spans[frame[0]]
        span[3] = end
        self._stack.pop()
        dur = end - span[2]
        name, layer, group = span[0], span[1], frame[1]
        self.self_s[layer] += dur - frame[2]
        self.calls[group] += 1
        self._depth[group] -= 1
        if self._depth[group] == 0:
            self.group_s[group] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if raised:
            parent_layer = self.spans[span[4]][1] if span[4] >= 0 else None
            if parent_layer != layer:
                self.layer_failed[layer] += 1
        return dur

    def command(self, cmd_id: int, name: str, fn, *args):
        """Run one CLI command as a top-level ``cli.<name>`` span."""
        self.cmd = cmd_id
        frame = self._enter(f"cli.{name}", "cli")
        try:
            return fn(*args)
        finally:
            while self._stack[-1] is not frame:   # a timeout hit between spans
                self._exit(self._stack[-1], False)
            self._exit(frame, False)

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        record_durations = name == "solvers.solve_subproblem"
        record_iterations = name in ("solvers.solve_general", "solvers.solve_subproblem")
        spd = name == "market.spd_bundle"

        def traced(*args, **kwargs):
            if spd:
                tracer.spd_keys.add(_spd_key(tracer.cmd, *args, **kwargs))
            frame = tracer._enter(name, layer)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer._exit(frame, True)
                raise
            except BaseException:     # interrupted (the command's time limit)
                tracer._exit(frame, False)
                raise
            dur = tracer._exit(frame, False)
            if record_durations:
                tracer.durations[name].append(dur)
            if record_iterations:
                tracer.iterations[name] += int(out.diagnostics.get("iterations", 0))
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------
    def install(self, habitopt) -> None:
        modules = {layer: getattr(habitopt, layer) for layer in LAYERS}
        bindings = [habitopt, habitopt.cli] + list(modules.values())
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._rebind(mod, attr, wrappers[id(obj)])
        for layer, names in SCIPY_ENTRY_POINTS.items():
            for attr in names:
                mod = modules[layer]
                self._rebind(mod, attr, self._wrap(getattr(mod, attr), f"{layer}.{attr}", layer))
        mod, attr = modules[TRY_COUNTER[0]], TRY_COUNTER[1]
        draw = getattr(mod, attr)

        def counted(*args, **kwargs):
            self.tries += 1
            return draw(*args, **kwargs)

        self._rebind(mod, attr, counted)

    def _rebind(self, mod, attr: str, new) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._restore):
            setattr(mod, attr, old)
        self._restore.clear()

    # -- output --------------------------------------------------------------
    def covered_s(self) -> float:
        """Time covered by top-level spans (the CLI commands)."""
        return sum(s[3] - s[2] for s in self.spans if s[4] == -1)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, layer, start, end, parent, cmd in self.spans:
                fh.write(json.dumps([name, layer, start, end, parent, cmd]) + "\n")
