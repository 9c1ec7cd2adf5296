"""The CLI's JSON and CSV writer against the serializer it replaced.

`_sanitize` below is the JSON-safe copy the CLI made of every payload before
`json.dumps` printed it. The writer walks a payload once and must print the
same text in each of its three layouts."""

import contextlib
import io
import json
import math
import shlex
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import example, given, settings, strategies as st

from gausslab import cli

ROOT = Path(__file__).resolve().parent.parent


def _is_record(obj) -> bool:
    return isinstance(obj, tuple) and hasattr(obj, "_fields")


def _sanitize(obj):
    """JSON-safe copy: records to dicts of their fields, fractions to
    exact strings, non-finite floats to null, tuples to lists. Output
    ordering is left to the sorted-keys dump."""
    if hasattr(obj, "item") and not isinstance(obj, (list, tuple, dict)):
        obj = obj.item()  # numpy scalar
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, Fraction):
        return str(obj)
    if _is_record(obj):
        return {k: _sanitize(v) for k, v in obj._asdict().items()}
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return str(obj)


def _csv_cell(value) -> str:
    """The CSV cell the CLI printed through `_sanitize`."""
    if hasattr(value, "item") and not isinstance(value, (list, tuple)):
        value = value.item()  # numpy scalar
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value)) if math.isfinite(value) else ""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)) and not _is_record(value):
        return json.dumps(_sanitize(value))
    return str(value)


# the `json.dumps` arguments of each layout
DUMPS = {cli._PAYLOAD: dict(sort_keys=True, indent=2, allow_nan=False),
         cli._CANONICAL: dict(sort_keys=True, separators=(",", ":")),
         cli._CELL: {}}


def reference_json(obj, layout) -> str:
    return json.dumps(_sanitize(obj), **DUMPS[layout])


class Pair(NamedTuple):
    b: object
    a: object


class Triple(NamedTuple):
    zeta: object
    alpha: object
    mid: object


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308,
                     1e308, -1e308, 0.1, 1e16, 1.5e-7]))
TEXT = st.text(st.characters(), max_size=8) | st.sampled_from(
    ["", "é", "\x00\x1f\x7f", '"\\/', " ퟿", "\U0001f600", "1", "10", "2"])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-3, 12), FLOATS, TEXT,
    st.fractions(max_denominator=10 ** 6),
    FLOATS.map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_))
KEYS = st.integers(-3, 12) | st.sampled_from(["1", "10", "2", "a", "B", "é", ""]) | st.integers()
VALUES = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(KEYS, children, max_size=5),
    st.builds(Pair, children, children),
    st.builds(Triple, children, children, children)), max_leaves=20)


@settings(max_examples=400)
@given(VALUES)
@example({1: "int first", "1": "str later"})
@example({"1": "str first", 1: "int later"})
@example({10: 0, 2: 1, "a": 2, -1: None})
@example([np.float64(0.1), np.int64(-5), np.bool_(True), Fraction(-1, 3), Pair(1, (2,))])
@example({"x": [], "y": {}, "z": ((), Pair([], {}))})
def test_the_writer_prints_what_json_printed_in_every_layout(value):
    for layout in DUMPS:
        assert cli._json(value, layout) == reference_json(value, layout)
    assert cli._csv_cell(value) == _csv_cell(value)


# the README command lines, run in this process: through the writer, then
# with `_sanitize`, `json.dumps` and the old CSV cell in its place: the same bytes
def test_readme_commands_print_the_same_bytes_through_the_reference(monkeypatch):
    lines = [shlex.split(line)[1:] for line in (ROOT / "README.md").read_text().splitlines()
             if line.startswith("gausslab ")]
    assert len(lines) == 13
    monkeypatch.chdir(ROOT)

    def stdout(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        return out.getvalue().encode()

    written = [stdout(argv) for argv in lines]
    monkeypatch.setattr(cli, "_json", reference_json)
    monkeypatch.setattr(cli, "_csv_cell", _csv_cell)
    assert [stdout(argv) for argv in lines] == written
