"""Per-layer timing and counts, recorded from outside the program.

For a traced run the tracer swaps selected public functions of the sdmat
modules for timing wrappers and puts the originals back afterwards; no
code under src/ changes.  A function is swapped wherever a module holds it
(``from .matrices import mat_mul`` binds it in every importer), so calls
between modules are seen as well as the benchmark's own.

Each wrapped call adds to its layer's call count, inclusive time (outermost
call of the layer only, so recursion through a layer is not counted twice)
and self time (its duration minus that of the wrapped calls it made).
Layers outside ``HOT`` also keep a span (op id, span id, parent span id,
layer, start, end); the hot inner layers run hundreds of thousands of
times a pass and keep their totals only.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import types
from dataclasses import dataclass
from functools import cached_property

from reference import CHECK_NAMES

# (layer, module, public function) timed under that layer.
FUNCTION_LAYERS = (
    ("catalog.build_instance", "sdmat.catalog", "build_instance"),
    ("catalog.load_matrix", "sdmat.catalog", "load_matrix"),
    ("groups.make_group", "sdmat.groups", "make_group"),
    ("groups.enumerate_homs", "sdmat.groups", "enumerate_homs"),
    ("matrices.check_conditions", "sdmat.matrices", "check_conditions"),
    ("matrices.enumerate", "sdmat.matrices", "enumerate_matrices"),
    ("matrices.mat_mul", "sdmat.matrices", "mat_mul"),
    ("matrices.to_endo", "sdmat.matrices", "matrix_to_endo"),
    ("oracle.census", "sdmat.oracle", "enumerate_endos"),
    ("oracle.compose", "sdmat.oracle", "compose_endos"),
    ("determinant.det", "sdmat.determinant", "det_k"),
    ("determinant.det", "sdmat.determinant", "det_h"),
    ("determinant.invert", "sdmat.determinant", "invert_via_det_k"),
    ("determinant.invert", "sdmat.determinant", "invert_via_det_h"),
    ("determinant.invert", "sdmat.determinant", "invert_combined"),
    ("determinant.invert", "sdmat.determinant", "dual_det_inverses"),
    ("factorization.classify", "sdmat.factorization", "classify"),
    ("factorization.factor", "sdmat.factorization", "factor_abcd"),
    ("verify.run", "sdmat.verify", "run_verification"),
)

HOT = frozenset(
    {
        "maps.is_hom",
        "matrices.mat_mul",
        "matrices.to_endo",
        "matrices.check_conditions",
        "oracle.compose",
        "factorization.classify",
        "groups.make_group",
    }
)

# Layers whose results are counted, with the size of one result.
RESULT_SIZES = {
    "oracle.census": lambda census: len(census.endos),
    "matrices.enumerate": len,
    "groups.enumerate_homs": len,
}


@dataclass
class LayerStats:
    calls: int = 0
    items: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[list] = []  # [layer, span id or None, child seconds, start]
        self._depth: dict[str, int] = {}
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _enter(self, layer: str) -> list:
        span_id = None
        if layer not in HOT:
            span_id = len(self.spans)
            self.spans.append(None)  # filled on exit
        frame = [layer, span_id, 0.0, time.perf_counter()]
        self._stack.append(frame)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        return frame

    def _exit(self, frame: list, result=None) -> None:
        end = time.perf_counter()
        layer, span_id, child_s, start = frame
        self._stack.pop()
        self._depth[layer] -= 1
        duration = end - start
        st = self.stats.setdefault(layer, LayerStats())
        st.calls += 1
        if self._depth[layer] == 0:
            st.total_s += duration
        st.self_s += duration - child_s
        if layer in RESULT_SIZES and result is not None:
            st.items += RESULT_SIZES[layer](result)
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            self.spans[span_id] = (self.op_id, span_id, parent, layer, start, end)

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            frame = self._enter(layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(frame, result)

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """One benchmark operation, recorded under the layer ``cli.op``."""
        self.op_id = op_id
        frame = self._enter("cli.op")
        try:
            yield
        finally:
            self._exit(frame)

    def take(self) -> dict[str, LayerStats]:
        """The stats gathered since the last call, then start afresh."""
        stats, self.stats = self.stats, {}
        return stats

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "sdmat" or name.startswith("sdmat.")]
        for layer, module, attr in FUNCTION_LAYERS:
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, name, wrapped)

        # The 13 checks are timed through verify's check registry.
        registry = sys.modules["sdmat.verify"]._CHECK_FUNCS
        for name in CHECK_NAMES:
            self._swap_item(registry, name, self.wrap(f"verify.check.{name}", registry[name]))

        # FMap.is_hom is a cached property: time the scan, not the cache hits.
        fmap = sys.modules["sdmat.maps"].FMap
        prop = fmap.__dict__["is_hom"]
        timed = cached_property(self.wrap("maps.is_hom", prop.func))
        timed.__set_name__(fmap, "is_hom")
        self._swap(fmap, "is_hom", timed)

        # Output emission of the command line: json.dumps and print in sdmat.cli.
        cli = sys.modules["sdmat.cli"]
        shim = types.ModuleType("json")
        shim.__dict__.update(vars(json))
        shim.dumps = self.wrap("cli.emit", json.dumps)
        self._swap(cli, "json", shim)
        self._swap(cli, "print", self.wrap("cli.emit", print))

    def _swap(self, owner, name: str, value) -> None:
        missing = object()
        self._restore.append((owner, name, owner.__dict__.get(name, missing), missing))
        setattr(owner, name, value)

    def _swap_item(self, mapping: dict, key: str, value) -> None:
        self._restore.append((mapping, key, mapping[key], None))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._restore:
            owner, name, old, missing = self._restore.pop()
            if isinstance(owner, dict):
                owner[name] = old
            elif old is missing:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
