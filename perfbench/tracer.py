"""Outside-in tracer: run one `hdx` command with every layer's public functions timed.

Usage (inside a job process, with the program's `src` on PYTHONPATH):

    python perfbench/tracer.py TRACE_OUT.json HDX_ARG...

It imports `hdxwalk.cli`, wraps each public function of the seven library
modules, rebinds the wrapper in every `hdxwalk.*` namespace that imported the
original, runs `cli.run(HDX_ARG...)` and writes per-module calls, self time
and errors to TRACE_OUT.json.  Stdout is the command's own output, unchanged.
Nothing in the program is modified on disk.
"""

from __future__ import annotations

import time

# CLOCK_MONOTONIC is shared by all processes on Linux, so the harness can set
# this against the moment it spawned the process.
MAIN_START = time.monotonic()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

LAYERS = ("complexes", "gf2", "cochain", "graphs", "spectral", "expansion", "walk")

# Per-element helpers called millions of times: wrapping them would time the
# tracer, not the program.  Their cost stays in the caller's self time.
UNWRAPPED = {
    "gf2": {"low_bit", "in_span", "span_iter"},
    "cochain": {"mask_bits", "chain_to_mask", "mask_to_chain"},
}

# Work counters, keyed by (module, function).  Each takes the call's own
# arguments and returns (counter name, amount) for a call that returned.
COUNTERS = {
    ("cochain", "distance_to_space"): lambda F, C, **_: ("cochain.codewords_scanned", 2**C.dim),
    ("spectral", "cheeger_exhaustive"): lambda G, **_: ("spectral.cut_subsets", 2 ** (G.n - 1)),
    ("spectral", "mixing_lemma_audit"): lambda G, **_: ("spectral.cut_subsets", 2**G.n),
    ("walk", "high_order_step_counts"): lambda X, e0, steps, paths, seed: ("walk.path_steps", steps * paths),
    ("walk", "simulate"): lambda G, v0, steps, seed: ("walk.path_steps", steps),
    ("walk", "high_order_simulate"): lambda X, e0, steps, seed: ("walk.path_steps", steps),
}

# lru_caches whose cache_info() the trace reports: (module, function).
CACHES = (("expansion", "certify_exact"), ("spectral", "normalized_spectrum"))


class Recorder:
    """Aggregates calls, self time and errors per layer from nested spans.

    A span's self time is its duration minus the durations of the spans it
    directly encloses.  `stack[-1]` accumulates the enclosed time of the span
    that is open; `stack[0]` belongs to the root span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [0.0]
        self.layers = {name: [0, 0.0, 0] for name in LAYERS}  # calls, self_s, errors
        self.counters: dict[str, int] = {}

    def wrap(self, layer: str, fn, counter=None):
        stats = self.layers[layer]
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = clock() - start
                enclosed = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - enclosed
                if not ok:
                    stats[2] += 1
                elif counter is not None:
                    name, amount = counter(*args, **kwargs)
                    self.counters[name] = self.counters.get(name, 0) + amount

        return traced

    def run_root(self, fn, *args):
        """Run the root span; return (result, its duration, its self time)."""
        self.stack[:] = [0.0]
        start = self.clock()
        try:
            result = fn(*args)
        finally:
            total = self.clock() - start
        return result, total, total - self.stack[0]


def _traceable(module, name, obj) -> bool:
    if name.startswith("_") or name in UNWRAPPED.get(module.__name__.rsplit(".", 1)[1], ()):
        return False
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    is_cache = isinstance(obj, functools._lru_cache_wrapper)
    return is_cache or (inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj))


def install(recorder: Recorder) -> dict:
    """Wrap every traceable function and rebind it in all `hdxwalk.*` modules.

    Returns {(layer, name): original} for the functions wrapped.
    """
    namespaces = [m for n, m in sys.modules.items() if n == "hdxwalk" or n.startswith("hdxwalk.")]
    originals = {}
    for layer in LAYERS:
        module = sys.modules[f"hdxwalk.{layer}"]
        for name, obj in list(vars(module).items()):
            if not _traceable(module, name, obj):
                continue
            originals[(layer, name)] = obj
            wrapper = recorder.wrap(layer, obj, COUNTERS.get((layer, name)))
            if (layer, name) == ("expansion", "certify_exact"):
                wrapper = _count_certifications(recorder, obj, wrapper)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, attr, wrapper)
    return originals


def _count_certifications(recorder: Recorder, cached, wrapper):
    """expansion.subsets: 2**n0 + 2**n1 - 2 per certification actually run (cache miss)."""

    @functools.wraps(cached)
    def counted(X, **kwargs):
        misses = cached.cache_info().misses
        result = wrapper(X, **kwargs)
        if cached.cache_info().misses > misses:
            amount = 2**X.n_vertices + 2**X.n_edges - 2
            counters = recorder.counters
            counters["expansion.subsets"] = counters.get("expansion.subsets", 0) + amount
        return result

    return counted


def main(argv: list[str]) -> int:
    out_path, hdx_args = argv[0], argv[1:]
    if sys.path and sys.path[0] == os.path.dirname(os.path.abspath(__file__)):
        del sys.path[0]  # the benchmark's modules must not shadow any the program imports
    start = time.perf_counter()
    import hdxwalk.cli as cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    originals = install(recorder)
    code, total_s, self_s = recorder.run_root(cli.run, hdx_args)
    sys.stdout.flush()
    caches = {}
    for layer, name in CACHES:
        info = originals[(layer, name)].cache_info()
        caches[f"{layer}.{name}"] = {"hits": info.hits, "misses": info.misses}
    doc = {
        "main_start": MAIN_START,
        "import_s": import_s,
        "run_s": total_s,
        "cli_self_s": self_s,
        "layers": {
            layer: {"calls": calls, "self_s": self_s, "errors": errors}
            for layer, (calls, self_s, errors) in recorder.layers.items()
        },
        "counters": recorder.counters,
        "caches": caches,
        "main_end": time.monotonic(),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
