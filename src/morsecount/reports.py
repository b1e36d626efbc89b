"""Machine-readable report writers.

report.json is deterministic: keys sorted, schema versioned, no timestamps.
Wall-clock data goes to report_meta.json so reruns stay byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import time
from pathlib import Path

SCHEMA_VERSION = "2"



def json_report(payload: dict) -> str:
    """Canonical serialization: schema stamped, keys sorted, stable floats."""
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def write_report(out_dir: str | Path, payload: dict) -> Path:
    return write_text(Path(out_dir) / "report.json", json_report(payload))


def write_meta(out_dir: str | Path) -> Path:
    """Timestamps and wall-clock live here, away from the deterministic report."""
    meta = json_report({"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")})
    return write_text(Path(out_dir) / "report_meta.json", meta)


def write_text(path: str | Path, text: str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _csv_string(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def index_table_csv(table) -> str:
    """Columns: level p, mu_p."""
    rows = [[p, m] for p, m in enumerate(table.mu, start=1)]
    return _csv_string(["p", "mu"], rows)


def bounds_csv(report) -> str:
    """Columns: level p, exact energy multiple of S_n, count lower bound."""
    rows = [
        [r.p, str(r.energy_multiple), r.lower_bound] for r in report.rows
    ]
    return _csv_string(["p", "energy_multiple_of_Sn", "lower_bound"], rows)


def trajectory_csv(report, n: int) -> str:
    """Flow trajectory: step, J, then per bubble the center and scale."""
    width = n + 2  # center components + lam
    if report.trajectory:
        p = (len(report.trajectory[0]) - 2) // width
    else:
        p = 0
    header = ["step", "J"]
    for i in range(1, p + 1):
        header += [f"x{i}_{j}" for j in range(1, n + 2)] + [f"lam{i}"]
    rows = [[repr(v) for v in row] for row in report.trajectory]
    return _csv_string(header, rows)


def critical_points_csv(points) -> str:
    """Columns: morse index, Laplacian, K value, location components."""
    if not points:
        return _csv_string(["iota", "laplacian", "value"], [])
    dim = len(points[0].location)
    header = ["iota", "laplacian", "value"] + [f"x_{j}" for j in range(1, dim + 1)]
    rows = [
        [pt.morse_index_K, repr(float(pt.laplacian)), repr(float(pt.value))]
        + [repr(float(c)) for c in pt.location]
        for pt in points
    ]
    return _csv_string(header, rows)
