"""In-memory spans around calls into gausslab's public functions.

The tracer patches module attributes from outside the package: every
gausslab module that imported a traced function by name gets the wrapper, so
calls are seen whichever module makes them. Spans stay in memory and are
written once, at the end of a run. Two hot methods are only counted, not
spanned, because a span per call would cost more than the call:
``JetValue.__mul__`` (per jet dimension) and ``Polynomial.eval_exact``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _chart_dim(args):
    return args[0].dim


def _fd_dim(args):
    return len(args[0].point)


# (module, attribute, span name, dimension of the call or None); the span
# of roots.isolate_and_refine also records how many roots it returned. Every
# library function that cli.main calls is here, so the self time of cli.main
# is only its own work: argument and input parsing, digests, JSON/CSV output.
FUNCTIONS = (
    ("gausslab.cli", "main", "cli.main", None),
    ("gausslab.cli", "load_config", "cli.load_config", None),
    ("gausslab.cli", "build_chart", "cli.build_chart", None),
    ("gausslab.exprjet", "parse_expression", "exprjet.parse", None),
    ("gausslab.geometry", "fundamental_data", "geometry.fundamental_data", _chart_dim),
    ("gausslab.geometry", "shape_data_euclidean", "geometry.shape_data", _chart_dim),
    ("gausslab.geometry", "shape_data_spherical", "geometry.shape_data", _chart_dim),
    ("gausslab.geometry", "gradient_of_mean_curvature", "geometry.grad_f", _fd_dim),
    ("gausslab.geometry", "rough_laplacian", "geometry.rough_laplacian", _fd_dim),
    ("gausslab.geometry", "scalar_laplacian", "geometry.scalar_laplacian", _fd_dim),
    ("gausslab.biharmonic", "hypersurface_residual", "biharmonic.sweep", _chart_dim),
    ("gausslab.biharmonic", "link_residual_system", "biharmonic.sweep", _chart_dim),
    ("gausslab.biharmonic", "r4_obstruction", "biharmonic.r4_obstruction", None),
    ("gausslab.biharmonic", "r3_ode_check", "biharmonic.r3_ode_check", None),
    ("gausslab.hypercone", "sphere_link_solver", "hypercone.sphere_link_solver", None),
    ("gausslab.hypercone", "clifford_link_solver", "hypercone.clifford_link_solver", None),
    ("gausslab.hypercone", "build_cone_chart", "hypercone.build_cone_chart", None),
    ("gausslab.isoparametric", "classify_type", "isoparametric.classify_type", None),
    ("gausslab.isoparametric", "condition_polynomial", "isoparametric.condition_polynomial",
     None),
    ("gausslab.isoparametric", "takagi_solver", "isoparametric.takagi_solver", None),
    ("gausslab.roots", "isolate_and_refine", "roots.isolate_and_refine", None),
)

# (module, class, method, span name, dimension of the call)
METHODS = (
    ("gausslab.geometry", "ImmersionChart", "component_jets", "exprjet.eval_jet",
     _chart_dim),
    ("gausslab.hypercone", "_QuadratureCurveComponent", "jet", "hypercone.cylinder_jet",
     None),
)


class Tracer:
    """Collects spans (name, start, end, parent, operation id, attributes)
    and call counts. ``install`` patches gausslab, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple[object, str, object]] = []

    # spans ----------------------------------------------------------------

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "op": self._op, **attrs})
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self):
        self.spans[self._stack.pop()]["end"] = time.perf_counter()

    @contextmanager
    def span(self, name, **attrs):
        record = self._open(name, attrs)
        try:
            yield record
        finally:
            self._close()

    @contextmanager
    def operation(self, op_id, label):
        """Root span of one benchmark operation; its children share op_id."""
        outer = self._op
        self._op = op_id
        try:
            with self.span("op", label=label) as record:
                yield record
        finally:
            self._op = outer

    def _wrap(self, fn, name, dim_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {"dim": dim_of(args)} if dim_of is not None else {}
            record = self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
                if name == "roots.isolate_and_refine":
                    record["results"] = len(result)
                return result
            finally:
                self._close()
        return traced

    # patching ---------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gausslab" or n.startswith("gausslab.")]
        for mod_name, attr, name, dim_of in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, dim_of)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, wrapper)
        for mod_name, cls_name, attr, name, dim_of in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, attr, self._wrap(cls.__dict__[attr], name, dim_of))
        self._install_counters()

    def _install_counters(self):
        from gausslab.exprjet import JetValue
        from gausslab.roots import Polynomial

        counts = self.counts
        mul = JetValue.__dict__["__mul__"]

        def counted_mul(a, b):
            counts[f"jet_mul.dim{a.m}"] += 1
            return mul(a, b)

        eval_exact = Polynomial.__dict__["eval_exact"]

        def counted_eval_exact(poly, x):
            counts["eval_exact"] += 1
            return eval_exact(poly, x)

        self._set(JetValue, "__mul__", counted_mul)
        self._set(JetValue, "__rmul__", counted_mul)
        self._set(Polynomial, "eval_exact", counted_eval_exact)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # output ---------------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]
