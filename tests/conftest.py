"""Shared helpers: finite-difference probes and quick chart builders."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import settings

from gausslab.exprjet import _TABLES
from gausslab.geometry import SamplingSpec, chart_from_strings

# `pytest --hypothesis-profile=ci` runs the same examples on every push;
# local runs keep the default random profile
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def empty_tables(monkeypatch):
    """exprjet's table cache, empty for one test, so that the test builds
    every table and plan it reaches; the cache's entries return after it."""
    monkeypatch.setattr(_TABLES, "entries", OrderedDict())
    monkeypatch.setattr(_TABLES, "bytes", 0)
    return _TABLES


def central_partial(fn, point, i, h=1e-5):
    """Richardson-extrapolated central difference of fn along coordinate i."""
    p = np.asarray(point, dtype=float)

    def d(step):
        lo, hi = p.copy(), p.copy()
        lo[i] -= step
        hi[i] += step
        return (fn(hi) - fn(lo)) / (2.0 * step)

    return (4.0 * d(h) - d(2.0 * h)) / 3.0


def graph_chart(expr, box=0.8, name="graph"):
    """Graph z = expr(u, v) over a centered box."""
    return chart_from_strings(
        name, ("u", "v"), ("u", "v", expr),
        ((-box, box), (-box, box)))


def unit_sphere_chart(counts=(6, 5), name="sphere"):
    return chart_from_strings(
        name, ("u", "v"),
        ("cos(u)*cos(v)", "sin(u)*cos(v)", "sin(v)"),
        ((0.0, 6.283185307179586), (-1.2, 1.2)),
        sampling=SamplingSpec(counts=counts))
