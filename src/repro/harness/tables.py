"""Plain-text rendering: aligned tables and ASCII convergence curves.

The benchmark harness prints the same rows/series the paper's figures show;
these helpers keep that output legible in a terminal and in the captured
``bench_output.txt``.
"""

from __future__ import annotations

import math
from typing import List, Mapping as MappingType, Sequence

import numpy as np

from repro.harness.experiments import MethodCurve


def format_table(
    header: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    """Render an aligned monospace table."""
    columns = len(header)
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row} does not match header width {columns}")
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(header[i]))
        for i in range(columns)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_curve(
    curves: MappingType[str, MethodCurve],
    width: int = 64,
    height: int = 12,
    log_y: bool = True,
    title: str = "",
) -> str:
    """Render convergence curves as an ASCII plot (one glyph per method).

    Y-axis is best-so-far normalized EDP (log scale by default, matching
    the paper's figures); X-axis is whatever grid the curves carry
    (iterations or seconds).
    """
    if not curves:
        return "(no curves)"
    glyphs = "*o+x#@%&"
    all_y: List[float] = []
    for curve in curves.values():
        all_y.extend(float(v) for v in curve.mean_best_norm_edp if np.isfinite(v))
    if not all_y:
        return "(empty curves)"
    y_min, y_max = min(all_y), max(all_y)
    if log_y:
        y_min, y_max = math.log10(max(y_min, 1e-12)), math.log10(max(y_max, 1e-12))
    if y_max - y_min < 1e-9:
        y_max = y_min + 1.0

    canvas = [[" "] * width for _ in range(height)]
    for index, (name, curve) in enumerate(curves.items()):
        glyph = glyphs[index % len(glyphs)]
        y_values = curve.mean_best_norm_edp
        n = len(y_values)
        for column in range(width):
            position = int(column / max(width - 1, 1) * (n - 1))
            value = float(y_values[position])
            if not np.isfinite(value):
                continue
            if log_y:
                value = math.log10(max(value, 1e-12))
            row = int((value - y_min) / (y_max - y_min) * (height - 1))
            row = height - 1 - max(0, min(height - 1, row))
            canvas[row][column] = glyph

    lines: List[str] = []
    if title:
        lines.append(title)
    top_label = f"{10**y_max:.1f}" if log_y else f"{y_max:.1f}"
    bottom_label = f"{10**y_min:.1f}" if log_y else f"{y_min:.1f}"
    lines.append(f"norm EDP (log) top={top_label} bottom={bottom_label}")
    for row in canvas:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={name}" for i, name in enumerate(curves)
    )
    lines.append(legend)
    return "\n".join(lines)


__all__ = ["ascii_curve", "format_table"]
