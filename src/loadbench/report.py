"""Result presentation: analysis over rows, Markdown reports, SVG bars.

Everything here consumes the flat result rows written by sweeps and single
runs (``results.csv`` / ``results.json``), so reports can be rebuilt from
files long after the runs finished.
"""

from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_GROUP_DEFAULT = ("batch_size", "num_workers", "backend")
_MATCH_FIELDS = ("split", "batch_size", "num_workers", "run_model", "filter_classes")


@dataclass
class AnalysisResult:
    pearson_r: float
    t_statistic: float
    n: int


def pearson(xs, ys) -> AnalysisResult:
    """Product-moment correlation and its t statistic."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be 1-d and equally long")
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float((dx * dx).sum())
    syy = float((dy * dy).sum())
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance")
    r = float((dx * dy).sum() / math.sqrt(sxx * syy))
    r = max(-1.0, min(1.0, r))
    if abs(r) < 1.0:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
    else:
        t = math.copysign(math.inf, r)
    return AnalysisResult(pearson_r=r, t_statistic=t, n=n)


def slowdown_pct(t_base: float, t_other: float) -> float:
    """Percent increase in total running time (seconds) over the baseline."""
    if t_base <= 0:
        raise ValueError("baseline time must be positive")
    return (t_other - t_base) / t_base * 100.0


def _ok_rows(rows: list[dict]) -> list[dict]:
    return [r for r in rows if not r.get("error")]


def _num(value) -> float:
    return float(value) if value not in ("", None) else float("nan")


def rows_correlation(rows: list[dict]) -> AnalysisResult:
    """Correlation between per-run speed and total running time."""
    ok = _ok_rows(rows)
    return pearson([_num(r["m"]) for r in ok], [_num(r["t_f"]) for r in ok])


def rows_max_speed(rows: list[dict],
                   group_by: tuple[str, ...] = _GROUP_DEFAULT) -> dict[tuple, float]:
    table: dict[tuple, float] = {}
    for row in _ok_rows(rows):
        key = tuple(row.get(field) for field in group_by)
        m = _num(row["m"])
        if key not in table or m > table[key]:
            table[key] = m
    return table


def rows_slowdown(rows: list[dict]) -> list[dict]:
    """Each non-local row against its matching local baseline, by total time."""
    ok = _ok_rows(rows)
    locals_ = {tuple(r.get(f) for f in _MATCH_FIELDS): r
               for r in ok if r.get("backend") == "local"}
    out = []
    for row in ok:
        if row.get("backend") == "local":
            continue
        base = locals_.get(tuple(row.get(f) for f in _MATCH_FIELDS))
        if base is None:
            continue
        out.append({
            "backend": row.get("backend"),
            "batch_size": row.get("batch_size"),
            "num_workers": row.get("num_workers"),
            "latency_mean_ms": row.get("latency_mean_ms"),
            "t_f": _num(row["t_f"]),
            "baseline_t_f": _num(base["t_f"]),
            "slowdown_pct": slowdown_pct(_num(base["t_f"]), _num(row["t_f"])),
        })
    return out


def _markdown_table(headers: list[str], body: list[list]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in body:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def render_markdown(rows: list[dict], title: str = "loadbench results") -> str:
    ok = _ok_rows(rows)
    failed = [r for r in rows if r.get("error")]
    parts = [f"# {title}", "",
             f"{len(rows)} runs ({len(failed)} failed)."]

    if ok:
        parts += ["", "## Runs", "",
                  _markdown_table(
                      ["batch", "workers", "backend", "run_model", "filter",
                       "rep", "m (samples/s)", "N", "t_f (s)", "first batch (s)"],
                      [[r.get("batch_size"), r.get("num_workers"),
                        r.get("backend"), r.get("run_model"),
                        r.get("filter_classes") or "-", r.get("repetition"),
                        f"{_num(r['m']):.1f}", r.get("N"),
                        f"{_num(r['t_f']):.3f}",
                        f"{_num(r.get('first_batch_s', 0)):.4f}"]
                       for r in ok])]

        table = rows_max_speed(ok)
        parts += ["", "## Max speed per configuration", "",
                  _markdown_table(
                      ["batch", "workers", "backend", "max m (samples/s)"],
                      [[*key, f"{value:.1f}"]
                       for key, value in sorted(table.items(),
                                                key=lambda kv: str(kv[0]))])]

        slowdowns = rows_slowdown(ok)
        if slowdowns:
            parts += ["", "## Slowdown vs local baseline", "",
                      _markdown_table(
                          ["backend", "batch", "workers", "latency (ms)",
                           "t_f (s)", "local t_f (s)", "slowdown %"],
                          [[s["backend"], s["batch_size"], s["num_workers"],
                            s["latency_mean_ms"], f"{s['t_f']:.3f}",
                            f"{s['baseline_t_f']:.3f}",
                            f"{s['slowdown_pct']:.1f}"]
                           for s in slowdowns])]

        try:
            corr = rows_correlation(ok)
        except ValueError:
            corr = None
        if corr is not None:
            parts += ["", "## Speed vs. total time", "",
                      f"Pearson r = {corr.pearson_r:.3f}, "
                      f"t = {corr.t_statistic:.2f}, n = {corr.n}."]

    if failed:
        parts += ["", "## Failures", "",
                  _markdown_table(["batch", "workers", "backend", "error"],
                                  [[r.get("batch_size"), r.get("num_workers"),
                                    r.get("backend"), r.get("error")]
                                   for r in failed])]
    return "\n".join(parts) + "\n"


def render_bar_chart_svg(items: list[tuple[str, float]],
                         title: str = "samples per second",
                         width: int = 640) -> str:
    """Horizontal bar chart, one bar per (label, value)."""
    bar_h, gap, top, left = 22, 8, 40, 220
    height = top + len(items) * (bar_h + gap) + 16
    peak = max((v for _, v in items), default=1.0) or 1.0
    span = width - left - 90
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-size="14">{html.escape(title)}</text>',
    ]
    for i, (label, value) in enumerate(items):
        y = top + i * (bar_h + gap)
        w = max(1, int(span * value / peak))
        parts.append(f'<text x="{left - 8}" y="{y + bar_h - 6}" '
                     f'text-anchor="end">{html.escape(str(label))}</text>')
        parts.append(f'<rect x="{left}" y="{y}" width="{w}" height="{bar_h}" '
                     f'fill="#4878a8"/>')
        parts.append(f'<text x="{left + w + 6}" y="{y + bar_h - 6}">'
                     f'{value:.1f}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_report(rows: list[dict], out_path: str | Path,
                 svg: bool = False, title: str = "loadbench results") -> list[Path]:
    """Write the Markdown report (and optionally an SVG chart next to it)."""
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_markdown(rows, title=title))
    written = [out]
    if svg:
        table = rows_max_speed(_ok_rows(rows))
        items = [("/".join(str(k) for k in key), value)
                 for key, value in sorted(table.items(), key=lambda kv: -kv[1])]
        svg_path = out.with_suffix(".svg")
        svg_path.write_text(render_bar_chart_svg(items, title="max speed (samples/s)"))
        written.append(svg_path)
    return written


def load_rows(paths: list[str | Path]) -> list[dict]:
    """Rows from any mix of results.json / results.csv files."""
    import csv as _csv

    rows: list[dict] = []
    for path in paths:
        p = Path(path)
        if p.suffix == ".json":
            payload = json.loads(p.read_text())
            rows.extend(payload if isinstance(payload, list) else [payload])
        else:
            with p.open() as fh:
                rows.extend(dict(r) for r in _csv.DictReader(fh))
    return rows
