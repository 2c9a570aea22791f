"""Command-line entry points: run one variant, sweep the noise study, report.

``run`` writes ``records.csv`` (one row per iteration per agent). ``report``
re-emits the per-iteration CSV as ``report.csv`` and renders ``accuracy.svg``
and ``purity.svg`` line charts. ``sweep-noise`` writes ``noise_results.csv``.
All outputs are deterministic: identical seed and config give identical bytes.
"""
from __future__ import annotations

import argparse
import csv
from pathlib import Path

from .config import (
    load_experiment_config,
    loop_config,
    noise_sweep_config,
    world_config,
)
from .errors import CoopAttrError
from .harness import (
    CSV_COLUMNS,
    LearnerVariant,
    records_to_csv,
    run_experiment,
    run_noise_study,
)
from .synthetic import generate_world

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _parse_variant(name: str) -> LearnerVariant:
    try:
        return LearnerVariant[name.strip().upper().replace("-", "_")]
    except KeyError:
        choices = ", ".join(v.name for v in LearnerVariant)
        raise SystemExit(f"unknown variant {name!r}; choose one of: {choices}")


def _cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    variant = _parse_variant(args.variant)
    world = generate_world(world_config(cfg, args.seed))
    records = run_experiment(variant, world, args.iterations, loop_config(cfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "records.csv").write_text(records_to_csv(records))
    final = records[-1]
    mean_acc = sum(m.accuracy for m in final.agents) / len(final.agents)
    print(f"{variant.name}: {len(records)} iterations, final mean accuracy {mean_acc:.4f}")
    print(f"wrote {out / 'records.csv'}")
    return 0


def _cmd_sweep_noise(args) -> int:
    cfg = load_experiment_config(args.config)
    results = run_noise_study(noise_sweep_config(cfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        "good_noise_std,baseline_accuracy,cooperative_accuracy,margin,"
        "good_attribute_accuracy,bad_attribute_accuracy"
    ]
    for r in results:
        lines.append(
            f"{r.good_noise_std!r},{r.baseline_accuracy!r},{r.cooperative_accuracy!r},"
            f"{r.margin!r},{r.good_attribute_accuracy!r},{r.bad_attribute_accuracy!r}"
        )
    (out / "noise_results.csv").write_text("\n".join(lines) + "\n")
    for r in results:
        print(
            f"sigma_good={r.good_noise_std:.3f} baseline={r.baseline_accuracy:.4f} "
            f"cooperative={r.cooperative_accuracy:.4f} margin={r.margin:+.4f}"
        )
    print(f"wrote {out / 'noise_results.csv'}")
    return 0


def _svg_line_chart(title: str, series: list[tuple[str, list[float], list[float]]]) -> str:
    """Minimal hand-rolled SVG so chart bytes stay deterministic."""
    width, height = 640, 400
    left, right, top, bottom = 60, 20, 36, 44
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys + [1.0])
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return left + (x - x_lo) / x_span * (width - left - right)

    def py(y):
        return height - bottom - (y - y_lo) / y_span * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{py(y_lo):.1f}" x2="{width - right}" y2="{py(y_lo):.1f}" stroke="black"/>',
        f'<line x1="{left}" y1="{py(y_lo):.1f}" x2="{left}" y2="{py(y_hi):.1f}" stroke="black"/>',
        f'<text x="{left - 6}" y="{py(y_lo):.1f}" text-anchor="end" font-size="11">{y_lo:.2f}</text>',
        f'<text x="{left - 6}" y="{py(y_hi) + 4:.1f}" text-anchor="end" font-size="11">{y_hi:.2f}</text>',
        f'<text x="{left}" y="{height - 12}" font-size="11">{x_lo:g}</text>',
        f'<text x="{width - right}" y="{height - 12}" text-anchor="end" font-size="11">{x_hi:g}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="11">iteration</text>',
    ]
    for k, (label, sx, sy) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(sx, sy))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{width - right - 4}" y="{top + 14 * k + 10}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_report(args) -> int:
    run_dir = Path(args.in_dir)
    records_path = run_dir / "records.csv"
    if not records_path.exists():
        raise SystemExit(f"no records.csv under {run_dir}")
    with records_path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise SystemExit(f"unexpected columns in {records_path}: {reader.fieldnames}")
        rows = list(reader)
    try:
        points = [
            (int(row["agent"]), float(row["iteration"]), float(row["accuracy"]),
             float(row["purity"]))
            for row in rows
        ]
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad value in {records_path}: {exc}")
    if not points:
        raise SystemExit(f"no records in {records_path}")
    (run_dir / "report.csv").write_text(records_path.read_text())
    agents = sorted({point[0] for point in points})
    for column, metric in ((2, "accuracy"), (3, "purity")):
        series = []
        for agent in agents:
            mine = [point for point in points if point[0] == agent]
            series.append((f"agent {agent}", [p[1] for p in mine], [p[column] for p in mine]))
        chart = _svg_line_chart(f"{metric} vs iteration", series)
        (run_dir / f"{metric}.svg").write_text(chart)
    print(f"wrote {run_dir / 'report.csv'}, accuracy.svg, purity.svg")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coopattr",
        description="Cooperative semi-supervised learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one learner variant on a synthetic world")
    run_p.add_argument("--variant", required=True, help="learner variant name")
    run_p.add_argument("--config", default=None, help="flat key=value config file")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--iterations", type=int, default=40)
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep-noise", help="run the attribute-noise study sweep")
    sweep_p.add_argument("--config", default=None)
    sweep_p.add_argument("--out", required=True)
    sweep_p.set_defaults(func=_cmd_sweep_noise)

    report_p = sub.add_parser("report", help="emit CSV and SVG charts for a run directory")
    report_p.add_argument("--in", dest="in_dir", required=True)
    report_p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CoopAttrError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
