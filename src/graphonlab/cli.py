"""Command line interface.

Exit codes: 0 success, 1 failed verification checks, 2 bad input or config,
3 budget exceeded, 4 search found no feasible point.
"""

from __future__ import annotations

import json
import sys
import time

import click

from . import graphs as graphs_mod
from . import localdensity as ld
from . import operators as ops
from . import search as search_mod
from . import stepgraphon as sg
from . import verify as verify_mod
from .density import hom_density, hom_density_naive, hom_density_subdivided
from .errors import BudgetExceededError, ConfigError, GraphonLabError
from .graphs import Graph

EXIT_CHECK_FAILURE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INFEASIBLE = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def parse_pattern(spec: str) -> Graph:
    """Pattern specs: clique:3, cycle:5, path:2, complete_multipartite:2,3,
    catalog:z6_chords, file:graph.json (or .txt edge list)."""
    head, _, rest = spec.partition(":")
    try:
        if head == "file":
            return graphs_mod.load_graph(rest)
        if head == "catalog":
            name, _, args = rest.partition(":")
            ints = [int(x) for x in args.split(",")] if args else []
            return graphs_mod.catalog(name, *ints)
        if head in graphs_mod.catalog_names():
            ints = [int(x) for x in rest.split(",")] if rest else []
            return graphs_mod.catalog(head, *ints)
    except (OSError, TypeError, ValueError, GraphonLabError) as exc:
        raise ValueError(f"bad pattern spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad pattern spec {spec!r}")


def _block_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"block count must be at least 1, got {n}")
    return n


def parse_graphon(spec: str) -> sg.StepGraphon:
    """Graphon specs: const:d, const:d:n, file:path, random:n:seed,
    regular:n:d:seed, dense:n:d:seed."""
    parts = spec.split(":")
    head = parts[0]
    try:
        if head == "const" and len(parts) == 2:
            return sg.constant(float(parts[1]))
        if head == "const" and len(parts) == 3:
            return sg.constant(float(parts[1]), _block_count(parts[2]))
        if head == "file" and len(parts) >= 2:
            return sg.load_graphon(":".join(parts[1:]))
        if head == "random" and len(parts) == 3:
            return sg.gen_random(_block_count(parts[1]), int(parts[2]))
        if head == "regular" and len(parts) == 4:
            return sg.gen_regular(_block_count(parts[1]), float(parts[2]), int(parts[3]))
        if head == "dense" and len(parts) == 4:
            return sg.gen_pointwise_dense(_block_count(parts[1]), float(parts[2]), int(parts[3]))
    except (OSError, ValueError, GraphonLabError) as exc:
        raise ValueError(f"bad graphon spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad graphon spec {spec!r}")


# --- SVG plotting (no plotting dependency) -----------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _svg_line_chart(series, title: str, xlabel: str, ylabel: str) -> str:
    """Minimal deterministic line chart: series is [(label, [(x, y), ...]), ...]."""
    width, height = 640, 400
    left, right, top, bottom = 70, 20, 40, 50
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def py(y):
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>',
    ]
    axis = f'stroke="black" stroke-width="1"'
    out.append(f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" {axis}/>')
    out.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" {axis}/>')
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        out.append(
            f'<text x="{px(xv):.1f}" y="{height - bottom + 18}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{xv:.4g}</text>'
        )
        out.append(
            f'<text x="{left - 6}" y="{py(yv):.1f}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif">{yv:.4g}</text>'
        )
    out.append(
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{(top + height - bottom) / 2:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})">{ylabel}</text>'
    )
    for idx, (label, pts) in enumerate(series):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        out.append(
            f'<text x="{width - right - 4}" y="{top + 14 + 14 * idx}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif" fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --- commands ------------------------------------------------------------------------


@click.group()
def cli():
    """Homomorphism densities, local density, and inequality verification on
    step graphons."""


@cli.command()
@click.option("--pattern", required=True, help="Pattern graph spec, e.g. clique:3.")
@click.option("--graphon", required=True, help="Step graphon spec, e.g. const:0.5.")
@click.option(
    "--route",
    type=click.Choice(["fast", "naive", "both"]),
    default="fast",
    show_default=True,
    help="fast = variable elimination, naive = full enumeration.",
)
@click.option(
    "--subdivision",
    type=click.IntRange(min=0),
    default=0,
    show_default=True,
    help="Subdivide the pattern with this many internal vertices per edge first.",
)
def density(pattern, graphon, route, subdivision):
    """Print the homomorphism density t(H, W)."""
    try:
        H = parse_pattern(pattern)
        W = parse_graphon(graphon)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    H_eff = graphs_mod.subdivide(H, subdivision)
    try:
        if route == "fast":
            click.echo(repr(hom_density(H_eff, W)))
            return
        if route == "naive":
            click.echo(repr(hom_density_naive(H_eff, W)))
            return
        rows = []
        t0 = time.perf_counter()
        value = hom_density(H_eff, W)
        rows.append(("eliminated", value, time.perf_counter() - t0))
        t0 = time.perf_counter()
        value = hom_density_naive(H_eff, W)
        rows.append(("naive", value, time.perf_counter() - t0))
        if subdivision > 0:
            t0 = time.perf_counter()
            value = hom_density_subdivided(H, subdivision, W)
            rows.append(("walk-kernel shortcut", value, time.perf_counter() - t0))
        for label, value, elapsed in rows:
            click.echo(f"{label:22s} {value!r}  ({elapsed * 1e3:.3f} ms)")
    except BudgetExceededError as exc:
        _fail(EXIT_BUDGET, str(exc))


@cli.command()
@click.option("--graphon", required=True, help="Step graphon spec.")
@click.option(
    "--method",
    type=click.Choice(["exact", "estimate", "grid"]),
    default="exact",
    show_default=True,
)
@click.option("--resolution", type=click.IntRange(min=1), default=400, show_default=True, help="Grid resolution.")
@click.option("--starts", type=click.IntRange(min=0), default=20, show_default=True, help="Estimate starts.")
@click.option("--seed", type=int, default=0, show_default=True)
def localdensity(graphon, method, resolution, starts, seed):
    """Print a local density certificate as JSON."""
    try:
        W = parse_graphon(graphon)
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    try:
        if method == "exact":
            cert = ld.local_density_exact(W)
        elif method == "estimate":
            cert = ld.local_density_estimate(W, starts=starts, seed=seed)
        else:
            cert = ld.grid_certificate(W, resolution)
    except BudgetExceededError as exc:
        _fail(EXIT_BUDGET, str(exc))
    click.echo(json.dumps(cert.to_json(), sort_keys=True))


@cli.command()
@click.option("--graphon", required=True, help="Step graphon spec.")
@click.option(
    "--kind",
    type=click.Choice(["path-power", "normalized-power", "u-kernel", "walk-density"]),
    default="path-power",
    show_default=True,
)
@click.option("--s", "s", type=click.IntRange(min=1), default=None, help="Walk length (path-power, walk-density).")
@click.option("--k", "k", type=click.IntRange(min=1), default=None, help="Half-length k (normalized-power, u-kernel).")
@click.option("--out", type=click.Path(), default=None, help="Write JSON here instead of stdout.")
def op(graphon, kind, s, k, out):
    """Apply a walk-kernel operator and print the result as JSON.

    path-power and normalized-power emit step graphon JSON that file: specs
    accept back; u-kernel and walk-density are not graphons and emit plain
    values/measures documents.
    """
    try:
        W = parse_graphon(graphon)
        if kind in ("path-power", "walk-density"):
            if s is None:
                raise ValueError(f"{kind} needs --s")
            if kind == "path-power":
                doc = sg.graphon_to_json(ops.path_power(W, s))
            else:
                f = ops.path_function(W, s)
                doc = {"values": f.values.tolist(), "measures": f.measures.tolist()}
        else:
            if k is None:
                raise ValueError(f"{kind} needs --k")
            if kind == "normalized-power":
                doc = sg.graphon_to_json(ops.normalized_path_power(W, k))
            else:
                kern = ops.u_kernel(W, k)
                doc = {"values": kern.values.tolist(), "measures": kern.measures.tolist()}
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@cli.command()
@click.option("--suite", default=None, help='Suite name ("paper-default").')
@click.option("--check", "checks", multiple=True, help="Run one check kind (repeatable).")
@click.option("--trials", type=click.IntRange(min=0), default=None, help="Trials per check.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Write the report here instead of stdout.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
)
def verify(suite, checks, trials, seed, out, fmt):
    """Run verification checks and report pass/fail per instance."""
    config = {"seed": seed}
    if suite is not None:
        config["suite"] = suite
    if checks:
        config["checks"] = list(checks)
    if trials is not None:
        config["trials"] = trials
    try:
        reports = verify_mod.run_suite(config)
    except ConfigError as exc:
        _fail(EXIT_INPUT, str(exc))
    except BudgetExceededError as exc:
        _fail(EXIT_BUDGET, str(exc))
    if fmt == "json":
        text = verify_mod.reports_to_json(reports, config)
    else:
        text = verify_mod.reports_to_csv(reports)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    summary = verify_mod.summarize(reports)
    for r in reports:
        if r.advisory and not r.passed:
            click.echo(f"advisory: {r.check_name} ratio {r.ratio:.6g} below bound", err=True)
    if summary["failed"] > 0:
        click.echo(f"{summary['failed']} of {summary['total']} checks failed", err=True)
        sys.exit(EXIT_CHECK_FAILURE)


@cli.command()
@click.option("--pattern", required=True, help="Pattern graph spec.")
@click.option("--d", "d", type=float, required=True, help="Local density floor in (0, 1).")
@click.option("--n", "n", type=click.IntRange(min=1), default=4, show_default=True, help="Blocks in the search space.")
@click.option("--starts", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--inner-iterations", type=click.IntRange(min=1), default=500, show_default=True)
@click.option("--probe-k", type=click.IntRange(min=1), default=None, help="Probe the 2k-subdivision bound instead.")
@click.option(
    "--sweep-d",
    default=None,
    help="Comma-separated d values; one line per d, exit 4 if any is infeasible. Not with --emit-graphon.",
)
@click.option("--emit-graphon", type=click.Path(), default=None, help="Write the best graphon JSON here.")
@click.option("--plot", type=click.Path(), default=None, help="Write an SVG of the trajectory (or sweep).")
def search(pattern, d, n, starts, seed, inner_iterations, probe_k, sweep_d, emit_graphon, plot):
    """Penalty-method search for density lower-bound violations."""
    try:
        H = parse_pattern(pattern)
        sweep = None
        if sweep_d is not None:
            sweep = [float(x) for x in sweep_d.split(",") if x.strip()]
            if not sweep:
                raise ValueError("empty sweep list")
            if emit_graphon:
                raise ValueError("--emit-graphon takes one search; it cannot be used with --sweep-d")
        # every d is checked before the first search runs, so a bad value
        # late in a sweep leaves no partial output
        for dv in [d] + (sweep or []):
            if not 0.0 < dv < 1.0:
                raise ValueError(f"target density must lie in (0, 1), got {dv:g}")
    except ValueError as exc:
        _fail(EXIT_INPUT, str(exc))
    cfg = search_mod.SearchConfig(starts=starts, inner_iterations=inner_iterations)
    registered = graphs_mod.in_knrs_registry(H)
    if not registered:
        click.echo("advisory: pattern is outside the proven lower-bound registry", err=True)

    def run(dv):
        if probe_k is not None:
            return search_mod.probe_even_subdivision(H, probe_k, dv, n, config=cfg, seed=seed)
        return search_mod.minimize_hom_density(H, dv, n, config=cfg, seed=seed)

    try:
        if sweep is not None:
            points = []
            for dv in sweep:
                result = run(dv)
                points.append((dv, result))
                click.echo(
                    f"d={dv:g} ratio={result.best_ratio!r} feasible={result.feasible}"
                )
            if plot:
                chart = _svg_line_chart(
                    [("best ratio", [(dv, r.best_ratio) for dv, r in points])],
                    title="feasible-best ratio vs d",
                    xlabel="d",
                    ylabel="ratio",
                )
                with open(plot, "w", encoding="utf-8") as fh:
                    fh.write(chart)
            if not all(r.feasible for _, r in points):
                click.echo("no feasible point reached the tolerance at some d", err=True)
                sys.exit(EXIT_INFEASIBLE)
            return
        result = run(d)
    except (ValueError, NotImplementedError) as exc:
        _fail(EXIT_INPUT, str(exc))
    except BudgetExceededError as exc:
        _fail(EXIT_BUDGET, str(exc))
    if emit_graphon:
        sg.save_graphon(result.best_graphon, emit_graphon)
    if plot:
        traj = result.trajectory
        chart = _svg_line_chart(
            [
                ("penalized objective", [(i, v) for i, v, _ in traj]),
                ("constraint residual", [(i, r) for i, _, r in traj]),
            ],
            title="search trajectory",
            xlabel="iteration",
            ylabel="value",
        )
        with open(plot, "w", encoding="utf-8") as fh:
            fh.write(chart)
    click.echo(search_mod.result_to_json_text(result), nl=False)
    if not result.feasible:
        click.echo("no feasible point reached the tolerance", err=True)
        sys.exit(EXIT_INFEASIBLE)


def main():
    cli(prog_name="graphonlab")


if __name__ == "__main__":
    main()
