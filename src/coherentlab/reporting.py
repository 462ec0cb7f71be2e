"""Deterministic CSV, JSON, and SVG artifact writers.

CSV cells are written as the csv module writes them: an int as ``str``,
a float as its shortest round-trip repr, and a string as given, so a
runner spells a boolean cell itself, as JSON does (``true``/``false``).
JSON keys are sorted, a non-finite float in JSON raises ``ValueError``
(it has no JSON form), and the SVG writer emits a self-contained
document with no timestamps or external references, so identical
inputs always produce byte-identical files.  Each writer writes into
an existing directory and creates none.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _widened(lo: float, hi: float) -> float:
    """``hi``, or for an empty range ``lo`` plus a width that survives rounding at ``lo``."""
    return hi if hi > lo else lo + max(1.0, math.ulp(lo))


def _scale(lo: float, hi: float) -> float:
    """1, or 0.5 where hi - lo overflows: such ends halve exactly, to a finite width."""
    return 1.0 if hi - lo < math.inf else 0.5


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Strictly increasing round-valued ticks inside [lo, hi], or [lo, hi], for finite lo < hi."""
    s = _scale(lo, hi)
    raw = (hi * s - lo * s) / (5 * s)  # aim at five ticks
    # 10 ** e underflows or loses digits below the normal range, where no step may fit
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    for step in (m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if 0 < raw <= m * mag):
        # integer tick indices: a running sum v += step stalls below half an ulp of v
        span = range(math.ceil(lo / step), math.floor(hi / step + 1e-9) + 1)
        # rounding to 12 places clears noise such as 3 * 0.1, but merges steps below 1e-11
        for ticks in ([round(i * step, 12) for i in span], [i * step for i in span]):
            ticks = [t for t in ticks if lo <= t <= hi]
            if ticks and all(a < b for a, b in zip(ticks, ticks[1:])):
                return ticks
    return [lo, hi]


def _tick_labels(ticks: list[float]) -> list[str]:
    """``{t:g}`` labels, or the fewest significant digits up to 17 that tell the ticks apart."""
    for digits in range(6, 18):
        labels = [f"{t:.{digits}g}" for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


_PALETTE = ["#1f6fb2", "#d1495b", "#3a7d44", "#8661c1", "#c77d2f", "#3b3b3b"]


def svg_line_plot(
    path,
    series,
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a self-contained SVG line chart, 720 x 480 pixels.

    ``series`` is a list of (x, y, label) with equal-length sequences.
    Every element is drawn: the title, both axis labels and one legend
    entry per series, so each of them must be given.
    """
    width, height = 720, 480
    ml, mr, mt, mb = 70, 20, 36, 52
    pw, ph = width - ml - mr, height - mt - mb
    xs = [float(v) for x, _, _ in series for v in x]
    ys = [float(v) for _, y, _ in series for v in y]
    if not xs or not ys:
        raise ValueError("cannot plot empty series")
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("cannot plot non-finite values")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x1, y1 = _widened(x0, x1), _widened(y0, y1)
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    sx, sy = _scale(x0, x1), _scale(y0, y1)
    ax, wx = x0 * sx, x1 * sx - x0 * sx
    ay, wy = y0 * sy, y1 * sy - y0 * sy

    def px(x: float) -> float:
        return ml + (x * sx - ax) / wx * pw

    def py(y: float) -> float:
        return mt + ph - (y * sy - ay) / wy * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#444444" stroke-width="1"/>',
    ]
    parts.append(
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>'
    )
    xticks = _nice_ticks(x0, x1)
    for tx, label in zip(xticks, _tick_labels(xticks)):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{mt + ph}" x2="{px(tx):.2f}" '
            f'y2="{mt + ph + 5}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{mt + ph + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    yticks = _nice_ticks(y0, y1)
    for ty, label in zip(yticks, _tick_labels(yticks)):
        parts.append(
            f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" '
            f'y2="{py(ty):.2f}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for i, (x, y, label) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(x, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = mt + 16 + 16 * i
        parts.append(
            f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 120}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{ml + pw - 114}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
