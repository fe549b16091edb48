"""In-memory span tracer installed from outside the package.

Each traced call is one span: it records the caller span's name, its
inclusive time and its self time (inclusive minus the time spent in child
spans).  Spans are aggregated per (parent, name) edge while the program runs,
so memory stays bounded however many calls a command makes, and are written
out once at exit by ``child.py``.

Wrappers are installed where callers look the functions up: a name bound by
``from .x import f`` in another module is a separate reference, so every
``speckleq`` module attribute that is the original function object is
replaced by the same wrapper.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("random_media", "quantum_stats", "ensemble", "prolate", "gaussian_oracle", "cli")

# cli is wrapped only at its three entry points, so that cli.execute's self
# time is the formatting and writing done between calls into other layers.
CLI_FUNCTIONS = ("main", "parse_args", "execute")

# mask_seed is a single bit-mask called twice per draw; a span around it
# would cost more than the call and is folded into its callers instead.
SKIP = {("random_media", "mask_seed")}

ROOT = "<root>"


def _realization_key(params, seed, *args, **kwargs):
    return (int(seed), int(params.channel_count))


def _psf_key(basis, modes_kept, *args, **kwargs):
    return (
        float(basis.bandwidth),
        int(basis.mode_count),
        int(basis.grid.shape[0]),
        basis.lam.tobytes(),
        int(modes_kept),
    )


# Spans whose distinct inputs are counted, for the reuse ratios.
KEYED = {
    "random_media.sample_realization": _realization_key,
    "prolate.reconstruction_psf": _psf_key,
}


class Tracer:
    """Span aggregation for one process: edges[(parent, name)] = [calls, incl_s, self_s]."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str, str], list] = {}
        self.keys: dict[str, set] = {}
        self._stack = [[ROOT, 0.0]]

    def wrap(self, name: str, fn):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        key = KEYED.get(name)
        seen = self.keys.setdefault(name, set()) if key is not None else None

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            if key is not None:
                seen.add(key(*args, **kwargs))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stat = edges.get((parent[0], name))
                if stat is None:
                    stat = edges[(parent[0], name)] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every layer's public functions and ProlateBasis.evaluate."""
        package = sys.modules["speckleq"]
        modules = [m for n, m in list(sys.modules.items()) if n == "speckleq" or n.startswith("speckleq.")]
        for layer in LAYERS:
            module = getattr(package, layer)
            if layer == "cli":
                targets = [(n, getattr(module, n)) for n in CLI_FUNCTIONS]
            else:
                targets = [
                    (n, obj)
                    for n, obj in vars(module).items()
                    if not n.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and (layer, n) not in SKIP
                ]
            for attr, original in targets:
                span = f"{layer}.{attr}"
                wrapped = self.wrap(span, original)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, bound, wrapped)
        basis_cls = package.prolate.ProlateBasis
        basis_cls.evaluate = self.wrap("prolate.evaluate", basis_cls.evaluate)

    def dump(self) -> dict:
        return {
            "edges": [[p, n, *stat] for (p, n), stat in self.edges.items()],
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }
