"""Command-line frontend: eval, synth, oracle and plot subcommands.

Exit code policy: 0 for successful computation (metric findings such as
negative MIG or pathology flags are results, not errors), 1 for
estimation/metric failures and failed oracle checks, 2 for operational
problems (missing or malformed files, invalid flag values).
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import sys
from pathlib import Path

import numpy as np

from .dataio import (
    _ATTRIBUTE_FIELDS,
    _dim_token,
    _write,
    format_float,
    read_dataset,
    read_series,
    read_truth,
    write_dataset,
    write_report,
    write_series,
    write_truth,
)
from .errors import DmigError, FileFormatError, SpecValidationError
from .estimation import EstimatorConfig
from .metrics import MetricReport, compute_dmig, evaluate, mi_profile
from .plotting import METRICS, PlotSpec, render_series_scatter
from .synthetic import FAMILIES, SyntheticSpec, gaussian_truth

__all__ = ["main"]


def _cell(v: float) -> str:
    if not np.isfinite(v):
        return format_float(v)
    return f"{v:.4f}"


def _print_report(report: MetricReport, heading: str | None = None) -> None:
    if heading:
        print(heading)
    print(
        f"{'attribute':<14}{'mig':>10}{'dmig':>10}{'scc':>10}  "
        f"{'branch':<14}{'top':>5}{'runner':>8}{'denominator':>13}  flags"
    )
    write_flags = _ATTRIBUTE_FIELDS["flags"][0]
    for a in report.per_attribute:
        print(
            f"{'a' + a.name:<14}{_cell(a.mig):>10}{_cell(a.dmig):>10}{_cell(a.scc):>10}  "
            f"{a.branch:<14}{_dim_token(a.top_dim):>5}{_dim_token(a.runner_up_dim):>8}"
            f"{_cell(a.denominator):>13}  {write_flags(a.flags)}"
        )
    print(f"{'mean':<14}{_cell(report.mean_mig):>10}{_cell(report.mean_dmig):>10}")


def _estimator_config(args: argparse.Namespace) -> EstimatorConfig:
    try:
        return EstimatorConfig(k=args.k)
    except DmigError as exc:
        raise SpecValidationError(f"invalid estimator flag: {exc}") from None


def _out_path(flag: str | None, default: Path, inputs: list[str]) -> Path:
    """An explicit --out, whose directory must exist, else the default,
    which sits beside an input so that a missing input is named first.
    Either is refused when it is a directory or one of the inputs."""
    out = Path(flag) if flag else default
    if flag and not out.parent.is_dir():
        raise SpecValidationError(f"--out directory does not exist: {out.parent}")
    if out.is_dir():
        raise SpecValidationError(f"output {out} is a directory; name a file with --out")
    if out.exists() and any(os.path.samefile(out, path) for path in inputs):
        raise SpecValidationError(f"output {out} is an input; name another with --out")
    return out


# Set by dmig.__main__ before any thread starts: only then may eval fork.
# A caller of main(argv) may hold threads or resources that a fork copies.
_OWN_PROCESS = False


def _evaluate_share(paths: list[str], cfg: EstimatorConfig, workers: int) -> list:
    """The reports of paths in order, up to the first failure, which ends the list."""
    share = []
    for path in paths:
        try:
            share.append(evaluate(read_dataset(path), cfg, workers=workers))
        except Exception as exc:
            return share + [exc]
    return share


def _evaluate_forked(paths: list[str], cfg: EstimatorConfig, cpus: list[int]) -> list[list]:
    """Run share j of n = len(cpus), paths[j::n], with one worker pinned to cpus[j].

    This process runs share 0 and forked child j share j, which it
    pickles back through a pipe. Unpinned, a child stays on its parent's CPU.
    """
    n, children, shares = len(cpus), [], []
    saved = os.sched_getaffinity(0)
    try:
        for j in range(1, n):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child never returns
                status = 1
                try:
                    os.close(read_end)
                    os.sched_setaffinity(0, {cpus[j]})
                    with open(write_end, "wb") as pipe:
                        pickle.dump(_evaluate_share(paths[j::n], cfg, 1), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, read_end))
        os.sched_setaffinity(0, {cpus[0]})
        shares.append(_evaluate_share(paths[0::n], cfg, 1))
    finally:
        os.sched_setaffinity(0, saved)
        for pid, read_end in children:
            with open(read_end, "rb") as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            died = ChildProcessError(f"an epoch worker exited with code {code}")
            shares.append(pickle.loads(data) if code == 0 else [died])  # at its first epoch
    return shares


def _evaluate_epochs(paths: list[str], cfg: EstimatorConfig, workers: int) -> list[MetricReport]:
    """The reports of paths in order, or the failure the serial loop meets first.

    In dmig's own process, up to `workers` processes share the epochs, one
    per allowed CPU, since a class-wise row holds the GIL.
    """
    cpus = []
    if _OWN_PROCESS and hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
    n = min(workers, len(paths), len(cpus))
    if n > 1:
        shares = _evaluate_forked(paths, cfg, cpus[:n])
    else:
        n, shares = 1, [_evaluate_share(paths, cfg, workers)]
    reports = [None] * len(paths)
    for j, share in enumerate(shares):
        reports[j:j + n * len(share):n] = share
    # Every epoch before the first failure was evaluated.
    failure = next((r for r in reports if isinstance(r, Exception)), None)
    if failure is not None:
        raise failure
    return reports


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _estimator_config(args)
    if args.workers < 1:
        raise SpecValidationError(f"--workers must be >= 1, got {args.workers}")
    kind = "report" if len(args.dataset) == 1 else "series"
    out = _out_path(args.out, Path(args.dataset[0]).with_suffix(f".{kind}"), args.dataset)
    series = list(enumerate(_evaluate_epochs(args.dataset, cfg, args.workers)))
    if kind == "report":
        write_report(series[0][1], out)
    else:
        write_series(series, out)
    for t, report in series:
        _print_report(report, heading=None if kind == "report" else f"epoch {t}")
    print(f"{kind} written to {out}")
    return 0


def _parse_pmf(text: str) -> tuple[tuple[float, ...], ...]:
    try:
        return tuple(
            tuple(float(v) for v in row.split(",")) for row in text.split(";")
        )
    except ValueError:
        raise SpecValidationError(
            f"bad --pmf value {text!r}; expected rows like '0.4,0.1;0.1,0.4'"
        ) from None


def _generate(gen, spec: SyntheticSpec):
    """Run a generator; an allocation it cannot make is a usage error."""
    try:
        return gen(spec)
    except MemoryError:
        raise SpecValidationError(
            f"--n {spec.n} samples of {spec.d_total} latent dims do not fit in memory"
        ) from None


def cmd_synth(args: argparse.Namespace) -> int:
    # --out-dir is created only once every flag is checked and the data
    # generated, so a rejected call leaves nothing behind.
    out_dir = Path(args.out_dir)
    family = args.family
    schedule = None
    if family == "trajectory":
        if args.epochs < 1:
            raise SpecValidationError(f"--epochs must be >= 1, got {args.epochs}")
        if not all(0.0 < s < math.inf for s in (args.noise_start, args.noise_end)):
            raise SpecValidationError("--noise-start and --noise-end must be finite and > 0")
        schedule = tuple(np.geomspace(args.noise_start, args.noise_end, args.epochs))
    spec = SyntheticSpec(
        family=family,
        n=args.n,
        seed=args.seed,
        rho=args.rho,
        pmf=_parse_pmf(args.pmf) if family == "discrete_joint" else None,
        noise_schedule=schedule,
        d_total=args.d_total,
    )
    generated = _generate(FAMILIES[family], spec)
    truth_path = out_dir / f"{family}.truth"
    if family == "trajectory":
        width = len(str(len(generated) - 1))
        files = [(out_dir / f"trajectory_epoch{t:0{width}d}.csv", ds) for t, ds in generated]
        truth = gaussian_truth(args.rho)
        done = f"wrote {len(files)} epoch datasets and {truth_path} to {out_dir}"
    else:
        ds, truth = generated
        files = [(out_dir / f"{family}.csv", ds)]
        done = f"wrote {files[0][0]} and {truth_path}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, ds in files:
        write_dataset(ds, path)
    write_truth(family, truth, truth_path)
    print(done)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if not args.tol >= 0.0:
        raise SpecValidationError(f"--tol must be >= 0, got {args.tol}")
    path = Path(args.dataset)
    truth_path = path.with_suffix(".truth")
    family, truth = read_truth(truth_path)
    ds = read_dataset(path)
    if ds.m != 2:
        raise FileFormatError(
            f"{truth_path} describes 2 attributes but {path} has M={ds.m}"
        )
    profile = mi_profile(ds, _estimator_config(args))
    h, h_cond = profile.h_marginal, profile.h_cond
    rows = [
        ("h_a1", h[0], truth.h_a[0]),
        ("h_a2", h[1], truth.h_a[1]),
        ("i_a1a2", h[0] - h_cond[0][1], truth.i_a1a2),
        ("h_cond12", h_cond[0][1], truth.h_cond[0][1]),
        ("h_cond21", h_cond[1][0], truth.h_cond[1][0]),
    ]
    for i in range(2):
        if np.isfinite(truth.ideal_dmig[i]):
            dmig = compute_dmig(i, profile, ds.regularized_map).dmig
            rows.append((f"dmig_a{i + 1}", dmig, truth.ideal_dmig[i]))

    print(f"oracle check: {family} (tolerance {args.tol})")
    print(f"{'quantity':<10}{'estimate':>14}{'truth':>14}{'abs error':>12}  verdict")
    failures = 0
    for label, est, tru in rows:
        err = abs(est - tru)
        ok = err <= args.tol
        failures += 0 if ok else 1
        print(
            f"{label:<10}{est:>14.6f}{tru:>14.6f}{err:>12.6f}  "
            f"{'PASS' if ok else 'FAIL'}"
        )
    if failures:
        print(f"{failures} of {len(rows)} checks failed")
        return 1
    print(f"all {len(rows)} checks passed")
    return 0


def _range_arg(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'lo:hi', got {text!r}"
        ) from None
    return (lo, hi)


def cmd_plot(args: argparse.Namespace) -> int:
    path = Path(args.series)
    out = _out_path(args.out, path.with_name(f"{path.stem}_{args.x}_{args.y}.svg"), [path])
    series = read_series(path)
    spec = PlotSpec(
        x_metric=args.x,
        y_metric=args.y,
        x_range=args.x_range,
        y_range=args.y_range,
    )
    svg = render_series_scatter(series, spec)
    _write(out, [svg])
    print(f"plot written to {out}")
    return 0


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--k", type=int, default=EstimatorConfig().k,
        help="kNN neighbor count (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmig",
        description=(
            "Dependency-aware disentanglement metrics: evaluate MIG/DMIG/SCC "
            "over latent-representation datasets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval",
        help="evaluate dataset file(s) and write a report or epoch series",
        description=(
            "Evaluate one dataset into a report, or several (in epoch order) "
            "into a series file."
        ),
    )
    p_eval.add_argument("dataset", nargs="+", help="dataset CSV path(s)")
    _add_estimator_flags(p_eval)
    p_eval.add_argument("--out", default=None, help="output report/series path")
    p_eval.add_argument(
        "--workers", type=int, default=1,
        help="threads for the MI grid, and the pinned epoch processes of a series "
        "run as the dmig program (default %(default)s)",
    )
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser(
        "synth",
        help="generate a synthetic dataset with a ground-truth sidecar",
        description="Generate synthetic datasets with closed-form ground truth.",
    )
    p_synth.add_argument("--family", required=True, choices=list(FAMILIES))
    p_synth.add_argument("--n", type=int, default=20000, help="sample count")
    p_synth.add_argument("--seed", type=int, default=0, help="generator seed")
    p_synth.add_argument(
        "--rho", type=float, default=0.8, help="attribute correlation, |rho| < 1"
    )
    p_synth.add_argument(
        "--pmf",
        default="0.4,0.1;0.1,0.4",
        help="discrete_joint table, rows ';'-separated, cells ','-separated",
    )
    p_synth.add_argument(
        "--epochs", type=int, default=30, help="trajectory epoch count"
    )
    p_synth.add_argument(
        "--noise-start", type=float, default=10.0, help="trajectory initial sigma"
    )
    p_synth.add_argument(
        "--noise-end", type=float, default=0.01, help="trajectory final sigma"
    )
    p_synth.add_argument(
        "--d-total", type=int, default=2, help="total latent dimensions (>= 2)"
    )
    p_synth.add_argument("--out-dir", default=".", help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_oracle = sub.add_parser(
        "oracle",
        help="compare estimates against a ground-truth sidecar",
        description=(
            "Estimate entropies/MI on a synthetic dataset and compare with its "
            "<stem>.truth sidecar at the given tolerance."
        ),
    )
    p_oracle.add_argument("dataset", help="dataset CSV path (with <stem>.truth)")
    _add_estimator_flags(p_oracle)
    p_oracle.add_argument(
        "--tol", type=float, default=0.03, help="absolute tolerance (default %(default)s)"
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_plot = sub.add_parser(
        "plot",
        help="render an SVG scatter of one metric against another",
        description="Scatter a metric pair across the epochs of a series file.",
    )
    p_plot.add_argument("series", help="series file path")
    p_plot.add_argument("--x", required=True, choices=list(METRICS))
    p_plot.add_argument("--y", required=True, choices=list(METRICS))
    p_plot.add_argument("--out", default=None, help="output SVG path")
    p_plot.add_argument(
        "--x-range", type=_range_arg, default=None, help="fixed x axis as 'lo:hi'"
    )
    p_plot.add_argument(
        "--y-range", type=_range_arg, default=None, help="fixed y axis as 'lo:hi'"
    )
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (FileFormatError, SpecValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DmigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
