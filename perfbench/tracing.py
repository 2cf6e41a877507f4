"""Spans around nlprobe's public functions, installed from outside the package.

Every public function of a measured layer is replaced, at every nlprobe
module that binds it, by one wrapper that records (id, name, start, end,
parent). Parents come from a per-thread stack; a span opened on a worker
thread with an empty stack (the `--jobs` thread pool) belongs to the
top-level span that the tracing thread has open. Spans stay in memory;
layer metrics are computed from them after each round.
"""

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict, namedtuple

# layer -> (defining module, public functions)
LAYERS = {
    "cli": ("nlprobe.cli", ("main",)),
    "probe": ("nlprobe.probe", ("make_probe", "bogoliubov_view")),
    "moments.general": ("nlprobe.moments", ("moment_general", "moment_vector")),
    "moments.real_axis": ("nlprobe.moments", ("moment_real_axis",)),
    "qfi_core": (
        "nlprobe.qfi_core",
        ("qfi_lambda", "qfi_zeta", "qfi_cross", "qfi_matrix", "reparametrize_physical", "scalar_bound_inverse"),
    ),
    "optimizer": (
        "nlprobe.optimizer",
        ("objective", "optimize_gamma", "find_threshold", "verify_zero_phase_optimality"),
    ),
    "fock_oracle": (
        "nlprobe.fock_oracle",
        (
            "annihilation",
            "quadrature",
            "default_dim",
            "build_state",
            "expectation_moment",
            "expectation_moments",
            "converged_moments",
            "qfi_matrix_oracle",
            "sld_operator",
            "evolution_unitarity_defect",
            "zeta_derivative_diagnostic",
        ),
    ),
}

# oracle entry points that deliver one validated result each
ORACLE_RESULTS = ("converged_moments", "qfi_matrix_oracle", "sld_operator")

# dim is the cutoff passed to build_state, 0 for every other function
Span = namedtuple("Span", "id name layer start end parent dim")


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = None
        self._top = 0
        self._patches = []

    def install(self):
        """Wrap every public layer function at every nlprobe module binding it."""
        self._owner = threading.get_ident()
        wrappers = {}
        for layer, (modname, names) in LAYERS.items():
            module = sys.modules[modname]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, name, layer))
        for modname, module in list(sys.modules.items()):
            if modname != "nlprobe" and not modname.startswith("nlprobe."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name, layer):
        local = self._local
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent = stack[-1]
            elif threading.get_ident() == self._owner:
                parent = 0
                self._top = sid
            else:
                parent = self._top
            dim = 0
            if name == "build_state":
                dim = args[1] if len(args) > 1 else kwargs["dim"]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append(Span(sid, name, layer, start, end, parent, dim))

        return traced


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans):
    """Per-layer counts and self times of one round's spans.

    A span's self time is its duration minus the part of it covered by its
    child spans. Worker-thread spans overlap in time, so at --jobs > 1 the
    self times of a layer can add up to more than the wall time.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    by_id = {s.id: s for s in spans}
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        self_s[s.layer] += (s.end - s.start) - _covered(children[s.id], s.start, s.end)
        calls[s.name] += 1

    def under(s, name):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == name:
                return True
            p = by_id.get(p.parent)
        return False

    per_solve = sum(1 for s in spans if s.name == "objective" and under(s, "optimize_gamma"))
    per_threshold = sum(1 for s in spans if s.name == "optimize_gamma" and under(s, "find_threshold"))
    results = sum(calls[n] for n in ORACLE_RESULTS)
    layer_calls = defaultdict(int)
    for s in spans:
        layer_calls[s.layer] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.self_s": self_s["cli"],
        "probe.calls": layer_calls["probe"],
        "probe.self_s": self_s["probe"],
        "moments.general.calls": calls["moment_general"],
        "moments.general.self_s": self_s["moments.general"],
        "moments.real_axis.calls": calls["moment_real_axis"],
        "moments.real_axis.self_s": self_s["moments.real_axis"],
        "qfi_core.calls": layer_calls["qfi_core"],
        "qfi_core.self_s": self_s["qfi_core"],
        "optimizer.objective.calls": calls["objective"],
        "optimizer.objective_per_solve": ratio(per_solve, calls["optimize_gamma"]),
        "optimizer.solves_per_threshold": ratio(per_threshold, calls["find_threshold"]),
        "optimizer.self_s": self_s["optimizer"],
        "fock_oracle.calls": layer_calls["fock_oracle"],
        "fock_oracle.states_per_result": ratio(calls["build_state"], results),
        "fock_oracle.cutoff_sum": sum(s.dim for s in spans if s.name == "build_state"),
        "fock_oracle.self_s": self_s["fock_oracle"],
    }
