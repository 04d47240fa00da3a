"""In-process span tracing of the schaudermat layers, from outside the package.

`instrumented` rebinds every public function of each layer module to a
timing wrapper, in every package module that holds a reference to it (the
package imports names with `from .x import y`), and restores the originals
on exit. The package's source is not touched. Spans stay in memory until
the benchmark writes them out.
"""

import contextlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("cli", "textio", "jsonfmt", "kernel", "schauder", "olevskii", "selection")

# Inclusive time of one function, summed over the pass.
FUNCTION_TIMES = {
    "textio.load_matrix": "textio.load_s",
    "textio.save_matrix": "textio.save_s",
    "jsonfmt.dumps": "jsonfmt.dumps_s",
    "kernel.invert": "kernel.invert_s",
    "kernel.condition_number": "kernel.condition_number_s",
    "kernel.direct_sum": "kernel.direct_sum_s",
    "schauder.basis_constant": "schauder.basis_constant_s",
    "schauder.riesz_diagnostic": "schauder.riesz_s",
    "olevskii.olevskii_block": "olevskii.block_s",
    "olevskii.keylemma_assemble": "olevskii.assemble_s",
    "olevskii.validate_plan": "olevskii.validate_plan_s",
    "selection.select_subsets": "selection.select_s",
}
# tracemalloc runs only inside these calls, which never nest in each other.
PEAK_MB = {
    "schauder.unconditional_constant": "schauder.uncond_peak_mb",
    "schauder.riesz_diagnostic": "schauder.riesz_peak_mb",
}
# Counts that must repeat exactly at a fixed seed.
COUNTS = ("schauder.evaluations", "schauder.greedy_steps", "schauder.q_bytes_computed",
          "textio.values", "jsonfmt.bytes", "kernel.calls")

METRICS = (
    [f"{layer}.self_s" for layer in LAYERS]
    + list(FUNCTION_TIMES.values()) + list(PEAK_MB.values()) + list(COUNTS)
    + ["schauder.uncond_exact_s", "schauder.uncond_sampled_s", "schauder.norms_per_s",
       "textio.values_per_s", "selection.demo_self_s"]
)


def unit(metric):
    if metric in COUNTS:
        return "count"
    if metric.endswith("_mb"):
        return "MB"
    return "1/s" if metric.endswith("_per_s") else "s"


class Tracer:
    """Spans (name, start, end, parent, run) and counts of one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = None
        self.counts = Counter()
        self.peaks = Counter()

    def wrap(self, name, fn):
        signature = inspect.signature(fn)
        peak_metric = PEAK_MB.get(name)

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self.stack[-1] if self.stack else None,
                    "run": self.run, "name": name}
            self.spans.append(span)
            self.stack.append(span["id"])
            if peak_metric:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if peak_metric:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    self.peaks[peak_metric] = max(self.peaks[peak_metric], peak)
                self.stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._count(name, bound.arguments, result, span)
            return result

        return traced

    def _count(self, name, arguments, result, span):
        layer = name.split(".")[0]
        if layer == "kernel":
            self.counts["kernel.calls"] += 1
        elif name == "textio.load_matrix":
            self.counts["textio.values"] += result.size
        elif name == "textio.save_matrix":
            self.counts["textio.values"] += len(arguments["m"]) * len(arguments["m"][0])
        elif name == "jsonfmt.dumps":
            self.counts["jsonfmt.bytes"] += len(result)
        elif name in ("schauder.basis_constant", "schauder.unconditional_constant"):
            n = arguments["pair"].size
            self.counts["schauder.evaluations"] += result.evaluations
            self.counts["schauder.q_bytes_computed"] += result.evaluations * n * n * 8
            if name.endswith("unconditional_constant"):
                if result.mode == "LowerBoundWitness":
                    samples = arguments["budget"].samples
                    self.counts["schauder.greedy_steps"] += (result.evaluations - n - samples) // n
                    span["mode"] = "sampled"
                else:
                    span["mode"] = "exact"

    def metrics(self):
        """Per-layer metrics of everything recorded so far."""
        durations = {s["id"]: s["end"] - s["start"] for s in self.spans}
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += durations[s["id"]]
        out = {m: 0 if m in COUNTS else 0.0 for m in METRICS}
        for s in self.spans:
            d = durations[s["id"]]
            name = s["name"]
            out[name.split(".")[0] + ".self_s"] += d - covered[s["id"]]
            if name in FUNCTION_TIMES:
                out[FUNCTION_TIMES[name]] += d
            if s.get("mode"):
                out[f"schauder.uncond_{s['mode']}_s"] += d
            if name == "selection.harmonic_demo":
                out["selection.demo_self_s"] += d - covered[s["id"]]
        out.update(self.counts)
        out.update(self.peaks)
        search_s = (out["schauder.basis_constant_s"] + out["schauder.uncond_exact_s"]
                    + out["schauder.uncond_sampled_s"])
        if search_s:
            out["schauder.norms_per_s"] = out["schauder.evaluations"] / search_s
        io_s = out["textio.load_s"] + out["textio.save_s"]
        if io_s:
            out["textio.values_per_s"] = out["textio.values"] / io_s
        return out


def public_functions(module):
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")}


@contextlib.contextmanager
def instrumented(tracer):
    """Rebind the layer functions of the imported package to *tracer*'s wrappers.

    Of the cli layer only `main` is wrapped: its subcommand handlers count
    towards the cli's self time.
    """
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"schaudermat.{layer}"]
        for name, fn in public_functions(module).items():
            if layer != "cli" or name == "main":
                wrappers[fn] = tracer.wrap(f"{layer}.{name}", fn)
    package = [m for key, m in sys.modules.items()
               if key == "schaudermat" or key.startswith("schaudermat.")]
    saved = []
    for module in package:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                saved.append((module, name, value))
                setattr(module, name, wrappers[value])
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)
