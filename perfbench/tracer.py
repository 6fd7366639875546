"""Span tracer that times the library's layers from outside.

`Tracer.install()` replaces every public function named in `LAYERS` with a
wrapper, in every `toric_surface_lab` module namespace that binds it (so
`derived.ext_line_bundles` and `cohomology.picard` are both covered), and on
the class for methods.  Each wrapped call while an op is open records one span
`(id, name, start, end, parent, op)`; spans stay in memory until `dump`.
Self time is derived afterwards as span time minus the time of its direct
child spans.  Nothing inside `src/` is changed.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "toric_surface_lab"

# module -> public functions (Class.method for methods).  The 2x2 helpers of
# intlinalg are left out on purpose: they are too fine-grained to wrap.
LAYERS = {
    "cli": ["main"],
    "lattice_fan": [
        "validate_fan", "self_intersections", "blow_down", "apply_matrix",
        "fans_isomorphic",
    ],
    "symmetry": [
        "compute_aut", "classify_subgroup", "enumerate_subgroups",
        "SymmetryGroup.attach",
    ],
    "minimal_model": ["minimalize", "classify_minimal", "contractible_orbits"],
    "grothendieck": [
        "picard", "line_bundle_class", "PicardLattice.pair", "PicardLattice.chi",
        "k0_multiply", "verify_klyachko", "standard_permutation_basis",
        "verify_permutation_basis", "search_line_bundle_basis",
    ],
    "cohomology": ["line_bundle_cohomology", "h0", "ext_line_bundles"],
    "derived": ["build_collection", "verify_collection"],
    "motivic": ["decompose"],
    "intlinalg": ["bareiss_det", "hermite_pivots"],
}

# lru-cached functions whose cache_info() gives a hit ratio.
CACHED = {"lattice_fan.self_intersections", "grothendieck.picard"}

OP = "op"  # name of the root span the runner opens around each op
NAMES = [OP] + [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._originals: dict[str, object] = {}

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        for mod_name in LAYERS:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        namespaces = [
            m for name, m in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for mod_name, fns in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            for qual in fns:
                key = f"{mod_name}.{qual}"
                idx = NAMES.index(key)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._bind(cls, attr, original, self._wrap(idx, original))
                else:
                    original = getattr(module, qual)
                    wrapper = self._wrap(idx, original)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                self._bind(ns, attr, original, wrapper)
                self._originals[key] = original

    def _bind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) so far of each lru-cached wrapped function."""
        out = {}
        for key in CACHED:
            info = self._originals[key].cache_info()
            out[key] = (info.hits, info.misses)
        return out

    # -- recording -------------------------------------------------------
    def _wrap(self, idx: int, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            return tracer._span(idx, fn, args, kwargs)

        return wrapper

    def _span(self, idx: int, fn, args, kwargs):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, idx, start, end, parent, self.op))

    def run_op(self, op_id: int, fn):
        """Run fn() as op `op_id` inside a root span."""
        self.op = op_id
        try:
            return self._span(0, fn, (), {})
        finally:
            self.op = None

    def absorb(self, spans, op_id: int) -> None:
        """Add spans recorded by a child process, re-numbered into this op."""
        base = self._next_id
        for span_id, idx, start, end, parent, _ in spans:
            self.spans.append((base + span_id, idx, start, end,
                               base + parent if parent >= 0 else -1, op_id))
            self._next_id = max(self._next_id, base + span_id + 1)

    def dump(self, path) -> None:
        """Write the spans as CSV, in completion order."""
        with open(path, "w") as handle:
            handle.write("id,name,start,end,parent,op\n")
            for span_id, idx, start, end, parent, op in self.spans:
                handle.write(f"{span_id},{NAMES[idx]},{start!r},{end!r},{parent},{op}\n")


def self_times(spans) -> dict[str, list[float]]:
    """name -> [calls, self seconds], self = span time minus direct children."""
    child = {}
    for span_id, idx, start, end, parent, op in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    out = {name: [0, 0.0] for name in NAMES}
    for span_id, idx, start, end, parent, op in spans:
        row = out[NAMES[idx]]
        row[0] += 1
        row[1] += (end - start) - child.get(span_id, 0.0)
    return out
