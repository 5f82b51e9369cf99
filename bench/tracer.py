"""Per-layer tracing from outside the program.

The tracer replaces public functions of ``shadowosc`` on the module
attributes their callers look up (``cli.classify``, ``shadow.classify``, ...)
with timing wrappers, and puts the originals back afterwards.  Nothing in
``src/`` is edited.  Every wrapped call keeps a frame on one stack, so a
layer's self time is its busy time minus the busy time of wrapped calls it
made.  Calls of layers listed in ``SPANS`` are kept as individual spans;
the hot per-sample layers are only aggregated, per name and per operation.
"""

from __future__ import annotations

import os
import time

# (metric name, defining module, [modules whose attribute callers look up], attribute)
WRAPPED = (
    ("cli.main", "cli", ["cli"], "main"),
    ("cli.build_parser", "cli", ["cli"], "build_parser"),
    ("cli._write_trajectory", "cli", ["cli"], "_write_trajectory"),
    ("integrators.make", "integrators", ["cli", "verify"], "make"),
    ("integrators.custom", "integrators", ["cli", "verify"], "custom"),
    ("classifier.classify", "classifier", ["cli", "shadow", "verify"], "classify"),
    ("shadow.generators_for", "shadow", ["cli", "shadow", "verify"], "generators_for"),
    ("algebra.closed_exp.under_shadow", "algebra", ["shadow"], "closed_exp"),
    ("algebra.closed_exp.under_flow", "algebra", ["flow"], "closed_exp"),
    ("flow.continuous_state", "flow", ["flow", "verify"], "continuous_state"),
    ("flow.euler_closed_form", "flow", ["cli"], "euler_closed_form"),
    ("flow.discrete_orbit", "flow", ["cli"], "discrete_orbit"),
    ("flow.write_trajectory_csv", "flow", ["cli"], "write_trajectory_csv"),
    ("flow.trajectory_to_json", "flow", ["cli"], "trajectory_to_json"),
    ("verify.series_exp", "verify", ["verify"], "series_exp"),
    ("verify.check_coincidence", "verify", ["verify"], "check_coincidence"),
    ("verify.check_conservation", "verify", ["verify"], "check_conservation"),
    ("verify.check_regime_map", "verify", ["verify"], "check_regime_map"),
)

SPANS = {"cli.main", "cli.build_parser", "cli._write_trajectory", "flow.discrete_orbit",
         "flow.write_trajectory_csv", "flow.trajectory_to_json",
         "verify.check_coincidence", "verify.check_conservation", "verify.check_regime_map"}


class Tracer:
    """Installs the wrappers when built; ``uninstall`` restores the originals."""

    def __init__(self, package):
        self.stack = []                 # ([child_ns], name) per active wrapped call
        self.stats = {name: [0, 0, 0, 0] for name, *_ in WRAPPED}  # calls, busy, self, raised
        self.spans = []                 # (op, name, parent, start_ns, end_ns)
        self.op = -1
        self.generators_built = 0
        self.rows_serialized = 0
        self.states_held_peak = 0
        self.bytes_written = 0
        self._saved = []
        for name, home, lookups, attr in WRAPPED:
            original = getattr(getattr(package, home), attr)
            wrapper = self._wrap(name, original)
            for module_name in lookups:
                module = getattr(package, module_name)
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self.stack
        clock = time.perf_counter_ns
        record = name in SPANS
        spans = self.spans
        after = getattr(self, "_after_" + name.split(".")[-1], None)

        def wrapper(*args, **kwargs):
            cell = [0]
            parent = stack[-1][1] if stack else None
            stack.append((cell, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                busy = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - cell[0]
                if stack:
                    stack[-1][0][0] += busy
                if record:
                    spans.append((self.op, name, parent, start, start + busy))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # Counters taken at layer boundaries, outside the timed span.
    def _after_generators_for(self, args, family):
        self.generators_built += len(family.generators)

    def _after__write_trajectory(self, args, result):
        path, trajectory = args[0], args[1]
        self.rows_serialized += len(trajectory.states)
        self.states_held_peak = max(self.states_held_peak, len(trajectory.states))
        self.bytes_written += os.path.getsize(path)

    def hot_snapshot(self):
        return {name: (s[0], s[1]) for name, s in self.stats.items() if name not in SPANS}

    def hot_delta(self, before):
        """Calls and busy ns of each hot layer since ``before``: its per-operation aggregate."""
        delta = {}
        for name, (calls, busy) in before.items():
            s = self.stats[name]
            if s[0] != calls:
                delta[name] = [s[0] - calls, s[1] - busy]
        return delta

    # ----------------------------------------------------------------- results

    def busy_s(self, name):
        return self.stats[name][1] / 1e9

    def self_s(self, name):
        return self.stats[name][2] / 1e9

    def calls(self, name):
        return self.stats[name][0]

    def raised(self, name):
        return self.stats[name][3]
