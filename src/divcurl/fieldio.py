"""Delimited-text field dumps and gridded sample ingestion for the CLI.

Dumps are plain CSV with a "x1,x2,v1,v2" header in row-major lattice order;
floats are written with %.17g so identical runs produce byte-identical files.
Gridded input samples are CSVs with columns "r,phi,value" or "x1,x2,value"
forming a complete tensor lattice; they are interpolated bilinearly onto the
solver lattice and the interpolation error is estimated from second
differences of the samples.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fmt",
    "write_field_dump",
    "load_gridded_samples",
    "GriddedSamples",
    "interpolate_to_polar",
]


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_field_dump(path, points, velocities) -> None:
    """CSV rows x1,x2,v1,v2; NaN velocities mark points inside the solid."""
    points = np.asarray(points, dtype=complex).ravel()
    velocities = np.asarray(velocities, dtype=complex).ravel()
    lines = ["x1,x2,v1,v2"]
    for p, v in zip(points, velocities):
        lines.append(f"{fmt(p.real)},{fmt(p.imag)},{fmt(v.real)},{fmt(v.imag)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class GriddedSamples:
    """Tensor-lattice samples (a, b, value) with a in {r, x1} and b in {phi, x2}."""

    def __init__(self, kind: str, a_values, b_values, table):
        self.kind = kind
        self.a_values = np.asarray(a_values, dtype=float)
        self.b_values = np.asarray(b_values, dtype=float)
        self.table = np.asarray(table, dtype=float)

    def error_estimate(self) -> float:
        """Crude bilinear interpolation error bound from second differences."""
        est = 0.0
        if self.table.shape[0] > 2:
            est += float(np.max(np.abs(np.diff(self.table, 2, axis=0)))) / 8.0
        if self.table.shape[1] > 2:
            est += float(np.max(np.abs(np.diff(self.table, 2, axis=1)))) / 8.0
        return est


def load_gridded_samples(path) -> GriddedSamples:
    with open(path) as fh:
        header = fh.readline().strip().lower().replace(" ", "")
    if header.startswith("r,phi"):
        kind = "polar"
    elif header.startswith("x1,x2"):
        kind = "cartesian"
    else:
        raise ValueError(f"{path}: expected header 'r,phi,value' or 'x1,x2,value', got '{header}'")
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns, got {raw.shape[1]}")
    bad = np.flatnonzero(~np.all(np.isfinite(raw), axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite number in data row {bad[0] + 1}")
    a_vals = np.unique(raw[:, 0])
    b_vals = np.unique(raw[:, 1])
    if min(a_vals.size, b_vals.size) < 2:
        names = header.split(",")[:2]
        raise ValueError(f"{path}: the lattice needs at least 2 values of {names[0]} and of "
                         f"{names[1]}, got {a_vals.size} and {b_vals.size}")
    if a_vals.size * b_vals.size != raw.shape[0]:
        raise ValueError(f"{path}: samples do not form a complete tensor lattice")
    table = np.full((a_vals.size, b_vals.size), np.nan)
    ia = np.searchsorted(a_vals, raw[:, 0])
    ib = np.searchsorted(b_vals, raw[:, 1])
    table[ia, ib] = raw[:, 2]
    if np.any(np.isnan(table)):
        raise ValueError(f"{path}: duplicate or missing lattice points")
    return GriddedSamples(kind, a_vals, b_vals, table)


def _bilinear(samples: GriddedSamples, a, b):
    """Bilinear interpolation; points outside the sample hull return 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    av, bv, tab = samples.a_values, samples.b_values, samples.table
    inside = (a >= av[0]) & (a <= av[-1]) & (b >= bv[0]) & (b <= bv[-1])
    ac = np.clip(a, av[0], av[-1])
    bc = np.clip(b, bv[0], bv[-1])
    ia = np.clip(np.searchsorted(av, ac, side="right") - 1, 0, av.size - 2)
    ib = np.clip(np.searchsorted(bv, bc, side="right") - 1, 0, bv.size - 2)
    ta = (ac - av[ia]) / (av[ia + 1] - av[ia])
    tb = (bc - bv[ib]) / (bv[ib + 1] - bv[ib])
    val = (
        tab[ia, ib] * (1 - ta) * (1 - tb)
        + tab[ia + 1, ib] * ta * (1 - tb)
        + tab[ia, ib + 1] * (1 - ta) * tb
        + tab[ia + 1, ib + 1] * ta * tb
    )
    return np.where(inside, val, 0.0), int(np.sum(~inside))


def interpolate_to_polar(samples: GriddedSamples, nodes, angles):
    """Sample table -> (node, angle) lattice values plus an ingestion report."""
    rr, pp = np.meshgrid(np.asarray(nodes, dtype=float), np.asarray(angles, dtype=float),
                         indexing="ij")
    if samples.kind == "polar":
        if samples.b_values[-1] < 2.0 * np.pi and samples.b_values[0] == 0.0:
            # stitch the periodic seam so angles past the last sample wrap
            samples = GriddedSamples(
                "polar", samples.a_values,
                np.append(samples.b_values, 2.0 * np.pi),
                np.hstack([samples.table, samples.table[:, :1]]),
            )
        values, outside = _bilinear(samples, rr, np.mod(pp, 2.0 * np.pi))
    else:
        values, outside = _bilinear(samples, rr * np.cos(pp), rr * np.sin(pp))
    report = {"outside_points": outside, "interpolation_error_estimate": samples.error_estimate()}
    return values, report
