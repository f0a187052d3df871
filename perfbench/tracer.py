"""Spans around the public functions of each ``rlvs`` module, installed from
outside the package.

``cli``, ``run_chain`` and ``Posterior`` look up their callees as module or
class attributes at call time, so replacing those attributes catches every
call they make. A name another module imported with ``from ... import`` keeps
pointing at the original function; such calls count towards the caller's
self time (``build_surface``'s calls to ``component_means``, for example).
Private helpers get no span, which keeps per-cell work such as
``surface._sample_std`` (780 calls per parameter draw) free of overhead.

Spans are kept in memory as ``[name, layer, start, end, parent]`` and written
out once, after the traced pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# Methods reached through the class at call time.
METHODS = {
    "grid": (("GridData", "from_dict"),),
    "model": (("Posterior", "grad"), ("Posterior", "logp")),
}

# Spans whose last arguments and return value the per-layer metrics read.
KEEP = ("grid.GridData.from_dict", "model.Posterior.grad", "sampler.run_chain")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.kept: dict[str, tuple] = {}
        self._stack = [-1]
        self._restore: list[tuple] = []

    def wrap(self, name: str, layer: str, fn):
        """``fn`` with a span named ``name`` in ``layer`` around each call."""
        spans, stack, clock, kept = self.spans, self._stack, time.perf_counter, self.kept
        keep = name in KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if keep:
                kept[name] = (args, out)
            return out

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every public function defined in each module, and METHODS.

        ``modules`` maps a layer name to its module object.
        """
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, self.wrap(f"{layer}.{attr}", layer, obj))
            for cls_name, attr in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                self._restore.append((cls, attr, raw))
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, layer, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, layer, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)

    def summary(self) -> tuple[dict, dict]:
        """Per span name ``[calls, total s, self s]`` and per layer self seconds.

        A span's self time is its duration minus its children's, so the
        layers' self times add up to the root span's duration.
        """
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names: dict[str, list] = {}
        layers: dict[str, float] = {}
        for (name, layer, start, end, _), c in zip(self.spans, child):
            rec = names.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - c
            layers[layer] = layers.get(layer, 0.0) + end - start - c
        return names, layers

    def write(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="\n") as fh:
            for name, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start - t0,
                                     "end": end - t0, "parent": parent}) + "\n")
