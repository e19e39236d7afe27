"""Command-line interface.

    contagion-lab <analyze|sweep|bootstrap|permute|placebo|did|fit|synth> [flags]

Each command writes one JSON envelope (schema_version 1) into the output
directory, atomically, plus optional CSV side files; ``--table`` echoes an
aligned text table. Exit codes: 0 success, 2 usage, 3 I/O, 4 numeric/model.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import pipeline
from .errors import (EXIT_IO, EXIT_MODEL, EXIT_OK, ConfigError, ContagionLabError,
                     MalformedRow, MissingColumn)
from .graph import build_network, eigenvalues_csv_text
from .ingest import BankPanel, balanced_panel, load_panel
from .pipeline import (
    OUTPUT_DIR_ENV,
    SCHEMA_VERSION,
    RunConfig,
    atomic_write_text,
    dump_json,
    ensure_writable,
    from_json,
    overlay,
    render_table,
    to_json,
)
from .reconstruct import (
    FixedRatio,
    LinearLogRatio,
    RHO_SWEEP_RANGE,
    SizeThresholdRatio,
    exposure_from_csv_text,
)
from .stats import bootstrap_lambda2, fit_distributions, permutation_test, placebo_null


def _build_run_config(args) -> RunConfig:
    """The ``--config`` file (or the defaults) with every given flag laid over it;
    ``CONTAGION_LAB_OUTPUT_DIR`` stands in for an absent ``--output-dir``."""
    doc = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from None
    cfg = from_json(RunConfig, doc)
    flags = {"output_dir": os.environ.get(OUTPUT_DIR_ENV) or None,
             **{name: v for name, v in vars(args).items() if v is not None}}
    if "ratio_sweep" in flags:  # sweep's --sweep-* slots; None keeps the config's or default
        given = zip(cfg.ratio_sweep or (*RHO_SWEEP_RANGE, 10), flags["ratio_sweep"])
        flags["ratio_sweep"] = tuple(s if flag is None else flag for s, flag in given)
    return overlay(cfg, flags)


def _load(cfg: RunConfig):
    panel = load_panel(cfg.input_path, delimiter=cfg.delimiter)
    if cfg.balanced:
        panel = balanced_panel(panel)
    return panel


def _emit(cfg: RunConfig, name: str, results, table: str | None, show_table: bool) -> Path:
    """Write the envelope of command ``name``; ``to_json`` serializes both
    ``cfg`` and ``results`` (result dataclasses, or dicts holding them)."""
    path = Path(cfg.output_dir) / f"{name}.json"
    payload = {"schema_version": SCHEMA_VERSION, "command": name, "config": cfg,
               "results": results}
    atomic_write_text(path, dump_json(to_json(payload)))
    if show_table and table:
        sys.stdout.write(table)
    else:
        sys.stdout.write(f"wrote {path}\n")
    return path


# --- commands ------------------------------------------------------------------

def cmd_analyze(args) -> int:
    cfg = _build_run_config(args)
    ensure_writable(cfg.output_dir)
    reports = pipeline.year_reports(_load(cfg), cfg)
    results = pipeline.analyze_results(reports)
    if args.eigenvalues_csv:
        for r in reports:
            atomic_write_text(Path(cfg.output_dir) / f"eigenvalues_{r.year}.csv",
                              eigenvalues_csv_text(r.spectrum))
    rows = [(r.year, r.n_banks, r.lambda2, r.kappa_eff, r.d_star) for r in reports]
    table = render_table(
        ["year", "banks", "lambda2", "kappa_eff", "d_star"], rows,
        title="Algebraic connectivity by year",
    )
    _emit(cfg, "analyze", results, table, args.table)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _build_run_config(args)
    ensure_writable(cfg.output_dir)
    panel = _load(cfg)
    results = pipeline.sweep_ratios(panel, cfg)
    rows = []
    for rho in results["rhos"]:
        row = [rho] + [results["lambda2"][str(y)][repr(float(rho))] for y in results["years"]]
        rows.append(row)
    table = render_table(["rho", *[str(y) for y in results["years"]]], rows,
                         title="lambda2 by interbank ratio")
    _emit(cfg, "sweep", results, table, args.table)
    return EXIT_OK


def cmd_bootstrap(args) -> int:
    cfg = _build_run_config(args)
    ensure_writable(cfg.output_dir)
    panel = _load(cfg)
    if cfg.bootstrap.year is None:
        cfg = replace(cfg, bootstrap=replace(cfg.bootstrap, year=panel.years[-1]))
    if cfg.bootstrap.seed is None:
        cfg = replace(cfg, bootstrap=replace(cfg.bootstrap, seed=cfg.seed))
    year = cfg.bootstrap.year
    _, assets = panel.assets_for_year(year)
    result = bootstrap_lambda2(assets, cfg.method, B=cfg.bootstrap.B, level=cfg.bootstrap.level,
                               seed=cfg.bootstrap.seed, workers=cfg.workers)
    table = render_table(
        ["year", "point", "ci_low", "ci_high", "B_eff"],
        [(year, result.point, result.ci_low, result.ci_high, result.B_effective)],
        title=f"Bootstrap lambda2 (level={cfg.bootstrap.level})",
    )
    _emit(cfg, "bootstrap", {"year": year, **to_json(result)}, table, args.table)
    return EXIT_OK


def _cell_number(row: dict, column: str, row_no: int) -> float:
    """The cell of ``column`` in a headered row; MalformedRow naming the row
    (the header is row 1, blank lines are no rows) if it is missing or not a
    finite number."""
    cell = row[column]
    try:
        value = float(cell)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        what = "no cell" if cell is None else f"{cell!r} is not a finite number"
        raise MalformedRow(f"row {row_no}: {what} in column {column!r}")
    return value


def _column_rows(path: str, columns: tuple[str, ...],
                 delimiter: str) -> list[tuple[int, dict]]:
    """The rows of a headered CSV with their numbers (the header is row 1, blank
    lines are no rows); MissingColumn if the header lacks one of ``columns``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        for column in columns:
            if column not in (reader.fieldnames or ()):
                raise MissingColumn(f"column {column!r} not found in the header")
        return list(enumerate(reader, start=2))


def cmd_permute(args) -> int:
    cfg = _build_run_config(args)
    ensure_writable(cfg.output_dir)
    group, value, groups = cfg.group_column, cfg.value_column, {}
    for row_no, row in _column_rows(cfg.input_path, (group, value), cfg.delimiter):
        groups.setdefault(row[group], []).append(_cell_number(row, value, row_no))
    if len(groups) != 2:
        raise ContagionLabError(f"expected exactly 2 groups, got {sorted(groups)}")
    (ga, va), (gb, vb) = sorted(groups.items())
    p = permutation_test(va, vb, n_perm=cfg.n_perm, seed=cfg.seed)
    t_obs = float(np.mean(va) - np.mean(vb))
    results = {"group_a": ga, "group_b": gb, "n_a": len(va), "n_b": len(vb),
               "t_obs": t_obs, "n_perm": cfg.n_perm, "p_value": p}
    table = render_table(["groups", "T_obs", "p_value"],
                         [(f"{ga} vs {gb}", t_obs, p)], title="Permutation test")
    _emit(cfg, "permute", results, table, args.table)
    return EXIT_OK


def cmd_placebo(args) -> int:
    cfg = _build_run_config(args)
    ensure_writable(cfg.output_dir)
    with open(cfg.input_path, "r", encoding="utf-8") as fh:
        exposures = exposure_from_csv_text(fh.read(), delimiter=cfg.delimiter)
    net = build_network(exposures, cfg.method.min_edge_threshold)
    result = placebo_null(net, n_draws=cfg.n_draws, seed=cfg.seed)
    table = render_table(
        ["observed", "null_mean", "percentile", "tied"],
        [(result.observed, float(np.mean(result.null_lambda2)),
          result.percentile, str(result.tied))],
        title=f"Placebo null ({cfg.n_draws} weight shuffles)",
    )
    _emit(cfg, "placebo", result, table, args.table)
    return EXIT_OK


def cmd_did(args) -> int:
    cfg = _build_run_config(args)
    ensure_writable(cfg.output_dir)
    if cfg.did.base_year is None:
        raise ConfigError("--base-year is required (flag or config)")
    panel = _load(cfg)
    years = set(pipeline.requested_years(panel, cfg))
    panel = BankPanel(tuple(r for r in panel.records if r.year in years))
    column, log, outcomes = cfg.did.outcome_column, cfg.did.log, {}
    for row_no, row in _column_rows(cfg.input_path, (column,), cfg.delimiter):
        val = _cell_number(row, column, row_no)
        if log and val <= 0:
            raise MalformedRow(f"row {row_no}: {row[column]!r} in column {column!r} "
                               "is not > 0, which --log needs")
        outcomes[row["bank_id"].strip(), int(row["year"])] = math.log(val) if log else val
    result, treatment = pipeline.did_from_panel(
        panel, base_year=cfg.did.base_year, quantile=cfg.did.quantile, outcomes=outcomes)
    results = {
        "base_year": cfg.did.base_year,
        "quantile": cfg.did.quantile,
        "n_treated": len(treatment.treated_ids()),
        **to_json(result),
    }
    rows = [(term, result.coefficients[term], result.clustered_se[term])
            for term in sorted(result.coefficients) if term.startswith("treated_post")]
    table = render_table(["term", "coef", "clustered_se"], rows,
                         title="Difference-in-differences (two-way FE)")
    _emit(cfg, "did", results, table, args.table)
    return EXIT_OK


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def cmd_fit(args) -> int:
    cfg = _build_run_config(args)
    ensure_writable(cfg.output_dir)
    try:
        values = [_cell_number(row, cfg.column, row_no) for row_no, row
                  in _column_rows(cfg.input_path, (cfg.column,), cfg.delimiter)]
    except MissingColumn:
        with open(cfg.input_path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh, delimiter=cfg.delimiter), [])
            if header and not _is_number(header[0]):
                raise
            fh.seek(0)  # no header: one number per line, blank lines skipped
            values = []
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    values.append(float(line))
                except ValueError:
                    raise MalformedRow(f"line {number}: {line!r} is not a number") from None
    result = fit_distributions(values, x_min=cfg.x_min, scan_xmin=cfg.scan_xmin)
    label = {"lognormal": "Lognormal", "power_law": "Power law",
             "inconclusive": "Inconclusive"}[result.best_fit]
    table = render_table(
        ["alpha_hat", "LR(PL-LN)", "p_value", "KS(PL)"],
        [(result.alpha_hat, result.lr_pl_vs_ln, result.p_value, result.ks_stat)],
        title="Tail distribution comparison",
    ) + f"Best Fit: {label}\n"
    _emit(cfg, "fit", result, table, args.table)
    if not args.table:
        sys.stdout.write(f"Best Fit: {label}\n")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _build_run_config(args)
    text = pipeline.synth_panel_csv(
        args.n, cfg.years or (2018, 2021, 2023), seed=cfg.seed, log_mean=args.log_mean,
        log_sigma=args.log_sigma, treated_shrink=args.shrink,
        shrink_from_year=args.shrink_from, treat_quantile=args.treat_quantile,
        noise_sigma=args.noise,
    )
    out = Path(args.out) if args.out else Path(cfg.output_dir) / "synthetic_panel.csv"
    atomic_write_text(out, text)
    sys.stdout.write(f"wrote {out}\n")
    return EXIT_OK


# --- parser --------------------------------------------------------------------
# A flag's ``dest`` names the config field it sets, and it defaults to None; only
# --config, --table, --eigenvalues-csv and synth's generator flags set no field.

class _SweepSlot(argparse.Action):
    """Sets slot ``const`` of sweep's (min, max, steps); the others stay as they are."""

    def __call__(self, parser, namespace, value, option_string=None):
        slots = getattr(namespace, self.dest)
        setattr(namespace, self.dest, (*slots[:self.const], value, *slots[self.const + 1:]))


def _year_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(y) for y in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated years, got {text!r}") from None


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _fixed_ratio(text: str) -> FixedRatio:
    try:
        return FixedRatio(float(text))
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:  # from float(); ConfigError, caught above, is a ValueError too
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1), got {text!r}") from None


def _add_common(p: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        p.add_argument("--input", dest="input_path", help="input CSV path")
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--output-dir", dest="output_dir", help="report directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--table", action="store_true", help="print an aligned text table")
    p.add_argument("--delimiter", default=None)


def _add_method(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=["max_entropy", "kde", "fitness", "min_density"])
    rule = p.add_mutually_exclusive_group()
    rule.add_argument("--rho", type=_fixed_ratio, dest="ratio_rule", help="fixed interbank ratio")
    rule.add_argument("--size-dependent", action="store_const", const=SizeThresholdRatio(),
                      dest="ratio_rule",
                      help="3%%/7%% ratios split at the 75th size percentile")
    rule.add_argument("--linear-log", action="store_const", const=LinearLogRatio(),
                      dest="ratio_rule", help="ratio 0.08 - 0.03*ln(T/mean)")
    p.add_argument("--fitness-alpha", type=float, default=None, dest="fitness_alpha")
    p.add_argument("--epsilon", type=float, dest="min_edge_threshold",
                   help="edge threshold in millions")
    p.add_argument("--balanced", action="store_true", default=None,
                   help="restrict to banks present in every year")
    p.add_argument("--years", type=_year_list, help="comma-separated year filter")
    p.add_argument("--d-coeff", type=float, dest="diffusion_D", help="diffusion coefficient D")
    p.add_argument("--kappa", type=float, dest="diffusion_kappa", help="intrinsic decay rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contagion-lab",
        description="Interbank network reconstruction and contagion analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-year reconstruction, spectrum, decay, topology")
    _add_common(p)
    _add_method(p)
    p.add_argument("--eigenvalues-csv", action="store_true", dest="eigenvalues_csv",
                   help="also dump per-year eigenvalue CSVs for plotting")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="lambda2 over a grid of interbank ratios")
    _add_common(p)
    _add_method(p)
    p.add_argument("--sweep-min", type=float, action=_SweepSlot, const=0, dest="ratio_sweep")
    p.add_argument("--sweep-max", type=float, action=_SweepSlot, const=1, dest="ratio_sweep")
    p.add_argument("--sweep-steps", type=int, action=_SweepSlot, const=2, dest="ratio_sweep")
    p.set_defaults(func=cmd_sweep, ratio_sweep=(None, None, None))

    p = sub.add_parser("bootstrap", help="bank-resampling CI for lambda2")
    _add_common(p)
    _add_method(p)
    p.add_argument("--year", type=int, default=None, help="default: last panel year")
    p.add_argument("-B", "--replicates", dest="B", type=int, default=None)
    p.add_argument("--level", type=float, default=None)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("permute", help="two-sided permutation test on two groups")
    _add_common(p)
    p.add_argument("--group-column", dest="group_column")
    p.add_argument("--value-column", dest="value_column")
    p.add_argument("--n-perm", type=_positive_int, dest="n_perm")
    p.set_defaults(func=cmd_permute)

    p = sub.add_parser("placebo", help="edge-weight shuffle null for lambda2")
    _add_common(p)
    p.add_argument("--epsilon", type=float, dest="min_edge_threshold",
                   help="edge threshold in millions")
    p.add_argument("--n-draws", type=_positive_int, dest="n_draws")
    p.set_defaults(func=cmd_placebo)

    p = sub.add_parser("did", help="difference-in-differences on the panel")
    _add_common(p)
    p.add_argument("--base-year", type=int, default=None, dest="base_year")
    p.add_argument("--quantile", type=float, default=None)
    p.add_argument("--outcome-column", dest="outcome_column")
    log_group = p.add_mutually_exclusive_group()
    log_group.add_argument("--log", dest="log", action="store_true", default=None)
    log_group.add_argument("--no-log", dest="log", action="store_false", default=None)
    p.add_argument("--balanced", action="store_true", default=None)
    p.add_argument("--years", type=_year_list)
    p.set_defaults(func=cmd_did)

    p = sub.add_parser("fit", help="power law vs lognormal tail comparison")
    _add_common(p)
    p.add_argument("--column")
    p.add_argument("--x-min", type=float, dest="x_min")
    p.add_argument("--scan-xmin", action="store_true", default=None, dest="scan_xmin")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("synth", help="generate a deterministic synthetic panel")
    _add_common(p, with_input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--years", type=_year_list, help="default: 2018,2021,2023")
    p.add_argument("--log-mean", type=float, default=11.0, dest="log_mean")
    p.add_argument("--log-sigma", type=float, default=1.0, dest="log_sigma")
    p.add_argument("--shrink", type=float, default=0.0,
                   help="treated-bank shrink fraction from --shrink-from on")
    p.add_argument("--shrink-from", type=int, default=2021, dest="shrink_from")
    p.add_argument("--quantile", type=float, default=0.75, dest="treat_quantile")
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--out", default=None, help="output CSV (default: output dir)")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: input not found: {exc.filename or exc}\n")
        return EXIT_IO
    except OSError as exc:
        sys.stderr.write(f"error: I/O failure: {exc}\n")
        return EXIT_IO
    except ContagionLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MODEL
    except Exception as exc:  # a defect or an input no check foresaw: one line, no traceback
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
