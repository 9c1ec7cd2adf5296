"""Correctness oracle: every check returns None for a correct output, else a
one-line reason. A rejected output counts as a failed operation.

Exact outputs (catalog report, solvers, root isolation, the R^3
certificate) must match the recording made at the benchmark's seed commit
byte for byte. Floating outputs (verify, verify-link, check cone-r4) must
agree field by field to 1e-9 relative; values at roundoff level (both below
ROUNDOFF, two orders under the 1e-8 residual threshold) only need to stay
there, so a speed-up that moves their last bits still passes. Verdicts and
exit codes are also checked against the mathematics, independently of the
recording.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

REL_TOL = 1e-9
ROUNDOFF = 1e-10
ROOT_TOL = 1e-9
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

PROPER = "ProperBiharmonicGauss"

# What the mathematics says each floating README command must conclude.
EXPECTED_VERDICTS = {
    # the round sphere has constant mean curvature: harmonic Gauss map
    "verify --config configs/sphere_S2.json": "HarmonicGauss",
    # cone over S^3(a), a^2 = m / (4m - 6) = 1/2: the catalog solution
    "verify --config configs/cone_S3.json --format csv": PROPER,
    # the same link, checked through the link system
    "verify-link --config configs/sphere_link_S3.json": PROPER,
}
R4_KEYS = ("check cone-r4 --config configs/torus_link.json", "r4_obstruction torus_link")


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Floating comparison


def close(a: float, b: float) -> bool:
    return (a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
            or max(abs(a), abs(b)) <= ROUNDOFF)


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_tree(got, want, path="$") -> str | None:
    """First difference between two JSON trees, floats compared by close()."""
    if isinstance(want, float) or (isinstance(got, float) and _number(want)):
        if not _number(got) or not close(float(got), float(want)):
            return f"{path}: {got!r} != {want!r}"
        return None
    if type(got) is not type(want):
        return f"{path}: type {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        if set(got) != set(want):
            return f"{path}: keys {sorted(set(got) ^ set(want))} differ"
        for k in want:
            diff = compare_tree(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = compare_tree(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def _csv_cells(text):
    return list(csv.reader(io.StringIO(text)))


def compare_csv(got: str, want: str) -> str | None:
    rows_g, rows_w = _csv_cells(got), _csv_cells(want)
    if len(rows_g) != len(rows_w):
        return f"csv: {len(rows_g)} rows != {len(rows_w)}"
    for r, (g, w) in enumerate(zip(rows_g, rows_w)):
        if len(g) != len(w):
            return f"csv row {r}: {len(g)} cells != {len(w)}"
        for c, (a, b) in enumerate(zip(g, w)):
            if a == b:
                continue
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                return f"csv row {r} cell {c}: {a!r} != {b!r}"
            if not close(fa, fb):
                return f"csv row {r} cell {c}: {a} != {b}"
    return None


# ---------------------------------------------------------------------------
# CLI outputs


def _verdicts(key: str, stdout: str) -> set:
    if "--format csv" in key:
        return {row[-1] for row in _csv_cells(stdout)[1:]}
    return {json.loads(stdout)["results"]["verdict"]}


def check_cli(key: str, code: int, stdout: str, golden: dict) -> str | None:
    """A CLI call with a recorded output: exit code 0, then byte-exact or
    floating agreement with the recording, then the expected conclusion."""
    if code != 0:
        return f"exit code {code}"
    want = golden.get(key)
    if want is None:
        return "no recording for this command"
    if "sha256" in want:
        return None if sha256(stdout) == want["sha256"] else "stdout differs from the recording"
    recorded = want["stdout"]
    try:
        if "--format csv" in key:
            diff = compare_csv(stdout, recorded)
        else:
            diff = compare_tree(json.loads(stdout), json.loads(recorded))
        if diff:
            return diff
        if key in EXPECTED_VERDICTS and _verdicts(key, stdout) != {EXPECTED_VERDICTS[key]}:
            return f"verdicts {sorted(_verdicts(key, stdout))} != {EXPECTED_VERDICTS[key]}"
        if key in R4_KEYS and not json.loads(stdout)["results"]["obstruction_holds"]:
            return "the R^4 obstruction does not hold"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc}"
    return None


def check_roots(code: int, stdout: str, roots: list[float]) -> str | None:
    """Isolation of a polynomial built from known roots: the count, and each
    known root inside its certified interval and next to its estimate."""
    if code != 0:
        return f"exit code {code}"
    try:
        res = json.loads(stdout)["results"]
        got = res["roots"]
        if res["count"] != len(roots) or len(got) != len(roots):
            return f"{res['count']} roots isolated, {len(roots)} expected"
        for iv, r in zip(got, roots):
            if not iv["certified"]:
                return f"root {r} not certified"
            if not iv["lo"] - 1e-12 <= r <= iv["hi"] + 1e-12:
                return f"root {r} outside ({iv['lo']}, {iv['hi']}]"
            if abs(iv["value"] - r) > ROOT_TOL * max(1.0, abs(r)):
                return f"root {r} estimated as {iv['value']}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    return None


# ---------------------------------------------------------------------------
# In-process library results


def check_residual(report, verdict: str, points: int) -> str | None:
    if report.verdict != verdict:
        return f"verdict {report.verdict} != {verdict}"
    if len(report.points) != points or report.failed_points:
        return f"{report.failed_points} of {len(report.points)} points failed"
    if not math.isfinite(report.max_residual):
        return "non-finite residual"
    return None


def check_link(report, points: int) -> str | None:
    if report.verdict != PROPER:
        return f"verdict {report.verdict} != {PROPER}"
    if len(report.points) != points or report.failed_points:
        return f"{report.failed_points} of {len(report.points)} points failed"
    return None


def check_r4(obstruction, golden: dict) -> str | None:
    if not obstruction.obstruction_holds:
        return "the R^4 obstruction does not hold"
    recorded = json.loads(golden[R4_KEYS[1]]["stdout"])
    return compare_tree(json.loads(json.dumps(obstruction.as_dict())), recorded)
