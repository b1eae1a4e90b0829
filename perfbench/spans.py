"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps the public functions of each devfactor module from outside
the program.  Modules import one another's functions by name (``cli`` and
``qed`` hold their own ``cutoff_ladder``; ``coulomb`` and ``qed`` their own
``segment_integrate``), so a wrapper placed only in the defining module would
miss those calls.  ``install`` therefore replaces every binding of each
original function in every loaded devfactor module.  ``quadrature`` looks up
``_kernels.reduce_axial`` and ``_adaptive_radial`` at call time, so those two
are covered by the same replacement.

A span's self time is its duration minus the time of the spans it encloses.
Spans are aggregated per name as they close; nothing is written until the
run ends.
"""

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

MODULES = ("quadrature", "_kernels", "coulomb", "fitting", "expansions", "qed",
           "dirac", "cli")
# Private functions that are layers of their own.
PRIVATE_LAYERS = {"quadrature": ("_adaptive_radial",), "_kernels": ("reduce_axial",)}
CLI_COMMANDS = ("spectral", "ladder", "fit", "regularize", "example", "coulomb")
QED_EXAMPLES = ("electron_self_energy", "photon_self_energy", "vertex_part")


def _label(module, name):
    return f"{module.lstrip('_')}.{name.lstrip('_')}"


class Tracer:
    def __init__(self):
        self.open = []  # child seconds of each open span, innermost last
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.count = defaultdict(float)
        self.bindings = defaultdict(list)  # label -> rebound module attributes
        self._ball_attempts = []  # evals of each radial attempt, per open ball
        self._ladder_rungs = []   # evals of each rung, per open ladder
        self._apply_depth = 0

    def wrap(self, label, fn):
        hooks = _HOOKS.get(label)
        tracer = self

        def traced(*args, **kwargs):
            if hooks:
                hooks[0](tracer, args, kwargs)
            tracer.open.append(0.0)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - t0
                child = tracer.open.pop()
                if tracer.open:
                    tracer.open[-1] += elapsed
                tracer.calls[label] += 1
                tracer.seconds[label] += elapsed
                tracer.self_seconds[label] += elapsed - child
                if hooks:
                    hooks[1](tracer, args, kwargs, result)

        traced.__wrapped__ = fn
        traced.label = label
        return traced

    def install(self):
        """Wrap the layer functions and rebind them wherever they are bound."""
        wrappers = {}
        for module in MODULES:
            mod = importlib.import_module(f"devfactor.{module}")
            for name, obj in vars(mod).items():
                public = (inspect.isfunction(obj) and not name.startswith("_")
                          and obj.__module__ == mod.__name__)
                if public or name in PRIVATE_LAYERS.get(module, ()):
                    wrappers[id(obj)] = (obj, self.wrap(_label(module, name), obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "devfactor" or mod_name.startswith("devfactor.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self.bindings[hit[1].label].append(f"{mod_name}.{name}")
        return self

    def self_ms(self, label):
        return 1e3 * self.self_seconds.get(label, 0.0)

    def layer_metrics(self, ops):
        """Per-op averages of the layer counters and self times over ``ops``
        traced ops; ratios are 0 where the workload never reaches the layer."""
        per = 1.0 / max(ops, 1)
        c = self.calls
        n = self.count

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "kernels.reduce_axial.calls": c["kernels.reduce_axial"] * per,
            "kernels.reduce_axial.points": n["reduce_axial.points"] * per,
            "kernels.reduce_axial.self_ms": self.self_ms("kernels.reduce_axial") * per,
            "quadrature.adaptive_radial.calls": c["quadrature.adaptive_radial"] * per,
            "quadrature.adaptive_radial.self_ms":
                self.self_ms("quadrature.adaptive_radial") * per,
            "quadrature.ball4_integrate.calls": c["quadrature.ball4_integrate"] * per,
            "quadrature.ball4_integrate.neval": n["ball4.neval"] * per,
            "quadrature.ball4_integrate.escalations":
                (c["quadrature.adaptive_radial"] - c["quadrature.ball4_integrate"]) * per,
            "quadrature.ball4_integrate.useful_ratio":
                ratio(n["ball4.final_attempt_neval"], n["ball4.neval"]),
            "quadrature.ball4_integrate.self_ms":
                self.self_ms("quadrature.ball4_integrate") * per,
            "quadrature.cutoff_ladder.calls": c["quadrature.cutoff_ladder"] * per,
            "quadrature.cutoff_ladder.self_ms": self.self_ms("quadrature.cutoff_ladder") * per,
            "quadrature.cutoff_ladder.redundancy":
                ratio(n["ladder.rung_neval"], n["ladder.top_rung_neval"]),
            "quadrature.segment_integrate.calls": c["quadrature.segment_integrate"] * per,
            "quadrature.segment_integrate.neval": n["segment.neval"] * per,
            "quadrature.segment_integrate.self_ms":
                self.self_ms("quadrature.segment_integrate") * per,
            "quadrature.segment_integrate.unconverged": n["segment.unconverged"] * per,
            "coulomb.apply_momentum_operator.self_ms":
                self.self_ms("coulomb.apply_momentum_operator") * per,
            "coulomb.s1.self_ms": self.self_ms("coulomb.s1") * per,
            "coulomb.segment_calls_per_pair":
                ratio(n["apply.segment_calls"], n["apply.pairs"]),
            "fitting.fit.calls": c["fitting.fit"] * per,
            "fitting.fit.self_ms": self.self_ms("fitting.fit") * per,
            "fitting.detect_signature.self_ms": self.self_ms("fitting.detect_signature") * per,
            "fitting.csv.self_ms": (self.self_ms("fitting.write_samples_csv")
                                    + self.self_ms("fitting.read_samples_csv")) * per,
            "fitting.csv.bytes": n["csv.bytes"] * per,
            "expansions.deviation_factor.self_ms":
                self.self_ms("expansions.deviation_factor") * per,
            "expansions.regularize_series.calls": c["expansions.regularize_series"] * per,
            "expansions.regularize_series.self_ms":
                self.self_ms("expansions.regularize_series") * per,
            "dirac.eigensystem.calls": c["dirac.eigensystem"] * per,
            "dirac.eigensystem.self_ms": self.self_ms("dirac.eigensystem") * per,
        }
        for name in QED_EXAMPLES:
            out[f"qed.{name}.self_ms"] = self.self_ms(f"qed.{name}") * per
        for name in CLI_COMMANDS:
            out[f"cli.{name}.self_ms"] = self.self_ms(f"cli.cmd_{name}") * per
        return out

    def table(self):
        """Lines of calls, total and self milliseconds per span name."""
        rows = sorted(self.calls, key=lambda k: -self.self_seconds[k])
        return [f"{k:44s} calls={self.calls[k]:9d} total_ms={1e3 * self.seconds[k]:11.2f} "
                f"self_ms={1e3 * self.self_seconds[k]:11.2f}" for k in rows]


def _nop_before(tracer, args, kwargs):
    pass


def _reduce_after(tracer, args, kwargs, result):
    tracer.count["reduce_axial.points"] += len(args[3]) * len(args[4])


def _radial_after(tracer, args, kwargs, result):
    if result is not None and tracer._ball_attempts:
        tracer._ball_attempts[-1].append(result[4])


def _ball_before(tracer, args, kwargs):
    tracer._ball_attempts.append([])


def _ball_after(tracer, args, kwargs, result):
    attempts = tracer._ball_attempts.pop()
    if result is None:
        return
    tracer.count["ball4.neval"] += result.neval
    tracer.count["ball4.final_attempt_neval"] += attempts[-1] if attempts else 0
    if tracer._ladder_rungs:
        tracer._ladder_rungs[-1].append(result.neval)


def _ladder_before(tracer, args, kwargs):
    tracer._ladder_rungs.append([])


def _ladder_after(tracer, args, kwargs, result):
    rungs = tracer._ladder_rungs.pop()
    if result is not None and rungs:
        tracer.count["ladder.rung_neval"] += sum(rungs)
        tracer.count["ladder.top_rung_neval"] += rungs[-1]


def _segment_after(tracer, args, kwargs, result):
    if result is None:
        return
    tracer.count["segment.neval"] += result.neval
    tracer.count["segment.unconverged"] += not result.converged
    if tracer._apply_depth:
        tracer.count["apply.segment_calls"] += 1


def _apply_before(tracer, args, kwargs):
    tracer._apply_depth += 1


def _apply_after(tracer, args, kwargs, result):
    tracer._apply_depth -= 1
    spec, grid = args[0], args[2]
    n = len(grid[0])
    if result is not None and spec.e != 0.0:
        tracer.count["apply.pairs"] += n * (n + 1) // 2


def _csv_after(tracer, args, kwargs, result):
    path = args[0]
    if os.path.exists(path):
        tracer.count["csv.bytes"] += os.path.getsize(path)


_HOOKS = {
    "kernels.reduce_axial": (_nop_before, _reduce_after),
    "quadrature.adaptive_radial": (_nop_before, _radial_after),
    "quadrature.ball4_integrate": (_ball_before, _ball_after),
    "quadrature.cutoff_ladder": (_ladder_before, _ladder_after),
    "quadrature.segment_integrate": (_nop_before, _segment_after),
    "coulomb.apply_momentum_operator": (_apply_before, _apply_after),
    "fitting.write_samples_csv": (_nop_before, _csv_after),
    "fitting.read_samples_csv": (_nop_before, _csv_after),
}
