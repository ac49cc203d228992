"""Spans around modops' public functions, counted from outside the program.

The tracer replaces public names with wrappers; nothing under ``src/``
changes.  ``install_linalg`` must run before ``modops`` is imported, so
that a module binding ``from numpy.linalg import svd`` at import time binds
the counting wrapper.  ``install_spans`` then wraps each public function and
class constructor named in ``SPANNED`` in every ``modops`` module namespace
that binds it (``cli.zfield`` as well as ``fibered.zfield``).

A span records its name, its parent's name, start, end and self time: its
duration minus the time its child spans cover.  The ``linalg`` layer is the
numpy boundary: ``svd``, ``eigh``, ``eigvalsh`` and the matrix 2-norm
(``norm(a, 2)`` of a 2-D array, which numpy computes by an SVD).
"""
from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layer -> public names spanned there; a class name spans its constructor
SPANNED = {
    "algebra": ("ideal_density_check", "AlgebraElement"),
    "operators": ("z_transform", "ZTransform", "DomainedOperator",
                  "orthonormal_frame", "graph_inclusion", "adjoint_via_graph"),
    "diffops": ("GridOperator", "kernel_certificate", "periodic_complement_floor"),
    "fibered": ("zfield", "adjoint_field", "build_counterexample_t",
                "gauge_extension", "GaugeField", "extension_inclusion_check",
                "tilde_extension"),
    "correspondence": ("phi1", "phi2", "roundtrip_check", "left_module_operator"),
}
# span name -> cli functions it covers; cli.main is the whole invocation
CLI_SPANS = {"parse": ("parse_spec_file", "config_from_sections"),
             "report": ("Report.write",), "main": ("main",)}
LINALG = ("svd", "eigh", "eigvalsh", "norm2")
LAYERS = tuple(SPANNED) + ("cli", "linalg")


def metric_units():
    """Every per-layer metric that :meth:`Tracer.metrics` reports, with its unit."""
    units = {}
    for layer, funcs in SPANNED.items():
        for f in funcs:
            units[f"{layer}.{f}.calls"] = "count"
            units[f"{layer}.{f}.self_s"] = "s"
    units["fibered.zfield.distinct_ratio"] = "ratio"
    for span in ("parse", "report"):
        units[f"cli.{span}.calls"] = "count"
        units[f"cli.{span}.self_s"] = "s"
    units["cli.self_s"] = "s"
    for f in LINALG:
        units[f"linalg.{f}.calls"] = "count"
    units["linalg.factorizations"] = "count"
    units["linalg.busy_s"] = "s"
    units["linalg.cubic_work"] = "m.n.min"     # sum of m*n*min(m, n), not flops
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    return units


class Tracer:
    """Collects spans while ``active``; a wrapper called inactive costs one
    attribute test."""

    def __init__(self):
        self.active = False
        self._undo = []
        self.reset()

    def reset(self):
        self.spans = []            # (name, parent, start, end, self_s, ok)
        self._stack = []           # [name, start, child seconds]
        self.cubic_work = 0
        self._pipeline = 0
        self._fibers = set()       # (pipeline, fiber digest) seen by zfield
        self.zfield_transforms = 0

    def begin_pipeline(self):
        """Distinct fibers are counted per pipeline."""
        self._pipeline += 1

    # -- spans ---------------------------------------------------------------
    def call(self, name, fn, args, kwargs):
        if name == "operators.z_transform" and self._stack \
                and self._stack[-1][0] == "fibered.zfield":
            self._note_fiber(args[0] if args else kwargs["T"])
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[2] += duration
            self.spans.append((name, parent[0] if parent else None, frame[1], end,
                               duration - frame[2], ok))

    def _note_fiber(self, fiber):
        """Record the fiber's content; the hashing is kept out of zfield's
        self time."""
        t0 = time.perf_counter()
        h = hashlib.blake2b(digest_size=16)
        for a in (fiber.action, fiber.frame):
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a).data)
        self._fibers.add((self._pipeline, h.digest()))
        self.zfield_transforms += 1
        self._stack[-1][2] += time.perf_counter() - t0

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs)
        wrapper.span = name
        return wrapper

    def _linalg_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            a = np.asarray(args[0] if args else kwargs["a" if name != "norm" else "x"])
            label = name
            if name == "norm":
                order = args[1] if len(args) > 1 else kwargs.get("ord")
                axis = args[2] if len(args) > 2 else kwargs.get("axis")
                if not (order == 2 and a.ndim == 2 and axis is None):
                    return fn(*args, **kwargs)
                label = "norm2"
            m, n = a.shape[-2:]
            self.cubic_work += int(np.prod(a.shape[:-2], dtype=np.int64)) * m * n * min(m, n)
            return self.call(f"linalg.{label}", fn, args, kwargs)
        wrapper.span = f"linalg.{name}"
        return wrapper

    # -- installation --------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace ``original`` wherever a modops module binds it."""
        for modname, module in list(sys.modules.items()):
            if modname == "modops" or modname.startswith("modops."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def install_linalg(self):
        import numpy.linalg as la
        for name in ("svd", "eigh", "eigvalsh", "norm"):
            original = getattr(la, name)
            wrapper = self._linalg_wrapper(name, original)
            self._patch(la, name, wrapper)
            self._rebind(original, wrapper)

    def install_spans(self):
        import modops.cli  # noqa: F401  (imports every spanned module)
        targets = [(f"{layer}.{f}", sys.modules[f"modops.{layer}"], f)
                   for layer, funcs in SPANNED.items() for f in funcs]
        cli = sys.modules["modops.cli"]
        for span, funcs in CLI_SPANS.items():
            for f in funcs:
                owner, _, attr = f.rpartition(".")
                targets.append((f"cli.{span}", getattr(cli, owner) if owner else cli,
                                attr))
        for name, owner, attr in targets:
            obj = getattr(owner, attr)
            if isinstance(obj, type):
                self._patch(obj, "__init__", self._span_wrapper(name, obj.__init__))
            else:
                wrapper = self._span_wrapper(name, obj)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    self._rebind(obj, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------
    def metrics(self):
        """Per-layer metrics over the spans recorded since :meth:`reset`."""
        calls, self_s, errors = Counter(), defaultdict(float), Counter()
        for name, _, _, _, own, ok in self.spans:
            calls[name] += 1
            self_s[name] += own
            if not ok:
                errors[name.split(".")[0]] += 1
        out = {}
        for layer, funcs in SPANNED.items():
            for f in funcs:
                out[f"{layer}.{f}.calls"] = calls[f"{layer}.{f}"]
                out[f"{layer}.{f}.self_s"] = self_s[f"{layer}.{f}"]
        out["fibered.zfield.distinct_ratio"] = (
            len(self._fibers) / self.zfield_transforms if self.zfield_transforms else 0.0)
        for span in ("parse", "report"):
            out[f"cli.{span}.calls"] = calls[f"cli.{span}"]
            out[f"cli.{span}.self_s"] = self_s[f"cli.{span}"]
        out["cli.self_s"] = self_s["cli.main"]
        for f in LINALG:
            out[f"linalg.{f}.calls"] = calls[f"linalg.{f}"]
        out["linalg.factorizations"] = sum(calls[f"linalg.{f}"] for f in LINALG)
        out["linalg.busy_s"] = sum(self_s[f"linalg.{f}"] for f in LINALG)
        out["linalg.cubic_work"] = self.cubic_work
        for layer in LAYERS:
            out[f"{layer}.errors"] = errors[layer]
        return out
