"""Pipeline orchestration: per-year analysis, ratio sweeps, synthetic panels.

Pure functions shared by the CLI. Year and sweep evaluations may run in a
thread pool; assembly is always ordered by (year, rho) so outputs are
byte-identical regardless of scheduling.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .contagion import DiffusionParams, critical_distance, effective_decay, kappa_ratio
from .errors import ConfigError, ContagionLabError
from .graph import (
    SpectrumResult,
    TopologyReport,
    build_network,
    laplacian_spectrum,
    threshold_lambda2,
    topology_report,
)
from .ingest import BankPanel, BankRecord, assign_treatment, panel_csv_text
from .reconstruct import (
    RATIO_RULES,
    FixedRatio,
    RatioRule,
    ReconstructionConfig,
    reconstruct_exposures,
)

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "CONTAGION_LAB_OUTPUT_DIR"


# --- configuration ---------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapSection:
    """Bootstrap parameters; ``seed=None`` means the run's ``seed`` and
    ``year=None`` the last panel year."""

    B: int = 100
    level: float = 0.95
    seed: int | None = None
    year: int | None = None

    def __post_init__(self):
        if self.B < 10:
            raise ConfigError(f"bootstrap B must be >= 10, got {self.B}")
        if not 0.0 < self.level < 1.0:  # NaN fails too
            raise ConfigError(f"bootstrap level must be in (0, 1), got {self.level!r}")


@dataclass(frozen=True)
class DidSection:
    """DID parameters; ``did`` needs ``base_year`` from a flag or the config."""

    base_year: int | None = None
    quantile: float = 0.75


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline command needs, JSON-loadable, flags win."""

    input_path: str = ""
    years: tuple[int, ...] = ()
    method: ReconstructionConfig = field(default_factory=ReconstructionConfig)
    ratio_sweep: tuple[float, float, int] | None = None  # (min, max, steps)
    bootstrap: BootstrapSection = field(default_factory=BootstrapSection)
    did: DidSection = field(default_factory=DidSection)
    output_dir: str = "."
    seed: int = 0
    diffusion_D: float = 1.0
    diffusion_kappa: float = 0.0
    d_star_epsilon: float = 0.1
    balanced: bool = False
    delimiter: str = ","
    workers: int = 1

    def __post_init__(self):
        if self.ratio_sweep is not None:
            lo, hi, steps = self.ratio_sweep
            if not (0.0 < lo < 1.0 and 0.0 < hi < 1.0):
                raise ConfigError("ratio sweep bounds must lie in (0, 1)")
            if lo > hi:
                raise ConfigError("ratio sweep min must be <= max")
            if steps < 1:
                raise ConfigError("ratio sweep needs at least 1 step")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # written as "not ok" so that NaN, which fails every comparison, is rejected
        if not 0.0 < self.diffusion_D < math.inf:
            raise ConfigError(f"diffusion_D must be finite and > 0, got {self.diffusion_D!r}")
        if not 0.0 <= self.diffusion_kappa < math.inf:
            raise ConfigError(
                f"diffusion_kappa must be finite and >= 0, got {self.diffusion_kappa!r}")
        if not 0.0 < self.d_star_epsilon < 1.0:
            raise ConfigError(f"d_star_epsilon must be in (0, 1), got {self.d_star_epsilon!r}")

    def params(self) -> DiffusionParams:
        return DiffusionParams(D=self.diffusion_D, kappa=self.diffusion_kappa)


def to_json(obj):
    """The JSON form of a config or a result, read off its dataclass fields.

    Dataclasses become objects without their ``compare=False`` fields, which
    are not part of their value; tuples, lists and arrays become lists, and
    dict keys strings.
    """
    if is_dataclass(obj):
        out = {"kind": obj.kind} if isinstance(obj, RatioRule) else {}
        return out | {f.name: to_json(getattr(obj, f.name)) for f in fields(obj) if f.compare}
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): to_json(v) for k, v in obj.items()}
    return obj


def from_json(tp, value, key: str = ""):
    """The inverse of ``to_json``: a ``tp`` (a config dataclass) from JSON.

    A missing or null key takes the field's default; an int is accepted as
    a float. An unknown key or a value of the wrong JSON type raises
    ConfigError naming the key; the classes' own checks raise it too.
    """
    if get_origin(tp) is UnionType:  # X | None; a null never gets here
        (tp,) = [a for a in get_args(tp) if a is not type(None)]
    if tp is RatioRule or is_dataclass(tp):
        if not isinstance(value, dict):
            raise _fail(key, f"expected object, got {type(value).__name__}")
        if tp is RatioRule:
            value = dict(value)
            tp = RATIO_RULES.get(str(value.pop("kind", None)))
            if tp is None:
                raise _fail(_join(key, "kind"), f"expected one of {sorted(RATIO_RULES)}")
        hints = get_type_hints(tp)
        unknown = sorted(value.keys() - hints.keys())
        if unknown:
            raise _fail(_join(key, unknown[0]), "unknown key")
        return tp(**{name: from_json(hints[name], v, _join(key, name))
                     for name, v in value.items() if v is not None})
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise _fail(key, f"expected list, got {type(value).__name__}")
        items = get_args(tp)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        if len(value) != len(items):
            raise _fail(key, f"expected {len(items)} items, got {len(value)}")
        return tuple(from_json(t, v, f"{key}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    if tp is float and type(value) is int:
        value = float(value)
    if not isinstance(value, tp) or isinstance(value, bool) != (tp is bool):
        raise _fail(key, f"expected {tp.__name__}, got {type(value).__name__}")
    return value


def overlay(obj, flags: dict):
    """``obj`` with each non-None ``flags[name]`` set on every field ``name``.

    The walk enters each field that holds a dataclass, unless the flag of
    its name holds one (a ratio rule): ``method`` sets ``method.method``,
    ``seed`` sets ``seed`` and ``bootstrap.seed``.
    """
    changes = {}
    for f in fields(obj):
        value, new = getattr(obj, f.name), flags.get(f.name)
        if is_dataclass(value) and not is_dataclass(new):
            new = overlay(value, flags)
        if new is not None:
            changes[f.name] = new
    return replace(obj, **changes)


def _join(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name


def _fail(key: str, message: str) -> ConfigError:
    return ConfigError(f"config key {key!r}: {message}" if key else f"config: {message}")


# --- per-year analysis -------------------------------------------------------------

def network_spectrum(assets: Sequence[float] | np.ndarray, method: ReconstructionConfig,
                     bank_ids: Sequence[str] | None = None) -> SpectrumResult:
    """Reconstruct exposures, threshold them into a network, decompose it once."""
    exposures = reconstruct_exposures(assets, method, bank_ids)
    return laplacian_spectrum(build_network(exposures, method.min_edge_threshold))


def network_lambda2(assets: Sequence[float] | np.ndarray,
                    method: ReconstructionConfig) -> float:
    """lambda2 of the network ``network_spectrum`` builds, without its full spectrum.

    When the exposures keep their IPF factors, lambda2 comes from the
    eigenvalue count of ``threshold_lambda2``, in O(n) per trial value,
    whether or not the threshold removed edges. Every other network, and one
    that ``threshold_lambda2`` declines, gets ``laplacian_spectrum``.
    """
    exposures = reconstruct_exposures(assets, method)
    net = build_network(exposures, method.min_edge_threshold)
    if exposures.factors is not None:
        lam = threshold_lambda2(*exposures.factors, net.W > 0)
        if lam is not None:
            return lam
    return laplacian_spectrum(net).lambda2


@dataclass(frozen=True)
class YearReport:
    """One year's connectivity, decay parameters, and topology.

    ``spectrum`` is kept for the eigenvalue CSV; as a ``compare=False`` field
    it is not serialized.
    """

    year: int
    n_banks: int
    lambda2: float
    kappa_eff: float
    d_star: float
    lambda_n: float
    n_components: int
    topology: TopologyReport
    spectrum: SpectrumResult = field(repr=False, compare=False)


def year_report(year: int, assets: np.ndarray, bank_ids: Sequence[str],
                cfg: RunConfig) -> YearReport:
    spectrum = network_spectrum(assets, cfg.method, bank_ids)
    k_eff = effective_decay(spectrum.lambda2, cfg.params())
    return YearReport(
        year=year,
        n_banks=len(assets),
        lambda2=spectrum.lambda2,
        kappa_eff=k_eff,
        d_star=critical_distance(k_eff, cfg.d_star_epsilon),
        lambda_n=spectrum.lambda_n,
        n_components=spectrum.n_components(),
        topology=topology_report(spectrum),
        spectrum=spectrum,
    )


def _pct(new: float, old: float) -> float:
    return 100.0 * (new - old) / old


def cross_year_summary(reports: Sequence[YearReport]) -> dict:
    """Adjacent and overall changes in lambda2 and kappa_eff."""
    pairs = []
    for prev, cur in zip(reports, reports[1:]):
        pairs.append({
            "from": prev.year,
            "to": cur.year,
            "delta_lambda2": cur.lambda2 - prev.lambda2,
            "pct_lambda2": _pct(cur.lambda2, prev.lambda2),
            "delta_kappa_eff": cur.kappa_eff - prev.kappa_eff,
            "pct_kappa_eff": _pct(cur.kappa_eff, prev.kappa_eff),
            "kappa_ratio": kappa_ratio(cur.lambda2, prev.lambda2),
        })
    summary = {"adjacent": pairs}
    if len(reports) >= 2:
        first, last = reports[0], reports[-1]
        summary["overall"] = {
            "from": first.year,
            "to": last.year,
            "delta_lambda2": last.lambda2 - first.lambda2,
            "pct_lambda2": _pct(last.lambda2, first.lambda2),
            "delta_kappa_eff": last.kappa_eff - first.kappa_eff,
            "pct_kappa_eff": _pct(last.kappa_eff, first.kappa_eff),
            "kappa_ratio": kappa_ratio(last.lambda2, first.lambda2),
        }
    return summary


def requested_years(panel: BankPanel, cfg: RunConfig) -> list[int]:
    """``cfg.years``, or every panel year when none is configured.

    A configured year the panel lacks raises ContagionLabError (exit 4).
    """
    years = list(cfg.years) if cfg.years else list(panel.years)
    for yr in years:
        if yr not in panel.years:
            raise ContagionLabError(f"requested year {yr} not in panel")
    return years


def year_reports(panel: BankPanel, cfg: RunConfig) -> list[YearReport]:
    """Reconstruction -> network -> spectrum -> decay -> topology, per year."""
    years = requested_years(panel, cfg)

    def one(year: int) -> YearReport:
        ids, assets = panel.assets_for_year(year)
        try:
            return year_report(year, assets, ids, cfg)
        except ContagionLabError as exc:
            raise type(exc)(f"year {year}: {exc}") from exc

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            return list(pool.map(one, years))
    return [one(y) for y in years]


def analyze_results(reports: Sequence[YearReport]) -> dict:
    return to_json({"years": reports, "summary": cross_year_summary(reports)})


def analyze_panel(panel: BankPanel, cfg: RunConfig) -> dict:
    return analyze_results(year_reports(panel, cfg))


# --- ratio sweep --------------------------------------------------------------------

def sweep_ratios(panel: BankPanel, cfg: RunConfig) -> dict:
    """lambda2 over a grid of fixed interbank ratios, per year.

    Also reports, per year, the log-log regression slope of lambda2 on
    rho (the observed scaling exponent) and, per rho, the percentage
    change of lambda2 between the first and last years.
    """
    if cfg.ratio_sweep is None:
        raise ValueError("ratio_sweep is not configured")
    lo, hi, steps = cfg.ratio_sweep
    rhos = [lo] if steps == 1 or lo == hi else list(np.linspace(lo, hi, steps))
    years = requested_years(panel, cfg)

    def one(job: tuple[int, float]) -> float:
        year, rho = job
        _, assets = panel.assets_for_year(year)
        method = replace(cfg.method, ratio_rule=FixedRatio(rho))
        return network_lambda2(assets, method)

    jobs = [(year, rho) for year in years for rho in rhos]
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            flat = list(pool.map(one, jobs))
    else:
        flat = [one(j) for j in jobs]
    grid = {year: {} for year in years}
    for (year, rho), lam in zip(jobs, flat):
        grid[year][rho] = lam

    exponents = {}
    for year in years:
        lams = np.array([grid[year][rho] for rho in rhos])
        if len(rhos) >= 2:
            slope = np.polyfit(np.log(rhos), np.log(lams), 1)[0]
            exponents[year] = float(slope)

    pct_changes = {}
    if len(years) >= 2:
        first, last = years[0], years[-1]
        for rho in rhos:
            pct_changes[rho] = _pct(grid[last][rho], grid[first][rho])

    return {
        "rhos": list(map(float, rhos)),
        "years": years,
        "lambda2": {str(year): {repr(float(rho)): grid[year][rho] for rho in rhos}
                    for year in years},
        "scaling_exponent": {str(y): v for y, v in exponents.items()},
        "pct_change_first_to_last": {repr(float(r)): v for r, v in pct_changes.items()},
    }


# --- synthetic panel generator --------------------------------------------------------

def synth_panel(n_banks: int, years: Sequence[int], seed: int = 0,
                log_mean: float = 11.0, log_sigma: float = 1.0,
                treated_shrink: float = 0.0, shrink_from_year: int = 2021,
                treat_quantile: float = 0.75, noise_sigma: float = 0.02) -> list[BankRecord]:
    """Deterministic synthetic bank panel with lognormal sizes.

    Base-year assets are lognormal(log_mean, log_sigma). Banks above the
    ``treat_quantile`` of base-year assets shrink by ``treated_shrink``
    (a fraction) in every year >= ``shrink_from_year``, mimicking
    differential deleveraging of the largest institutions. Idiosyncratic
    lognormal noise of scale ``noise_sigma`` completes the data-generating
    process.
    """
    if n_banks < 3:
        raise ConfigError(f"need at least 3 banks, got {n_banks}")
    # each check is written as "not ok" so that NaN is rejected too
    if not 0.0 <= treated_shrink < 1.0:
        raise ConfigError(f"treated_shrink must be in [0, 1), got {treated_shrink!r}")
    if not 0.0 <= treat_quantile <= 1.0:
        raise ConfigError(f"treat_quantile must be in [0, 1], got {treat_quantile!r}")
    if not math.isfinite(log_mean):
        raise ConfigError(f"log_mean must be finite, got {log_mean!r}")
    if not 0.0 <= log_sigma < math.inf:
        raise ConfigError(f"log_sigma must be finite and >= 0, got {log_sigma!r}")
    if not 0.0 <= noise_sigma < math.inf:
        raise ConfigError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    years = sorted(int(y) for y in years)
    repeated = sorted({y for y in years if years.count(y) > 1})
    if repeated:
        raise ConfigError(f"years must be distinct, got {repeated[0]} more than once")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    base = rng.normal(log_mean, log_sigma, size=n_banks)
    levels = [base + rng.normal(0.0, noise_sigma, size=n_banks) if noise_sigma > 0 else base
              for _ in years]
    # ingest takes only finite assets > 0, so a level whose exp leaves the
    # float range is rejected here, before exp warns, raises or writes 0.0
    with np.errstate(over="ignore", under="ignore"):
        drawn = np.exp(levels)
    if not np.all((0.0 < drawn) & (drawn < math.inf)):
        raise _out_of_range(log_mean, log_sigma, treated_shrink)
    # treatment is decided on *observed* first-year assets so that
    # assign_treatment on the emitted panel recovers the same flags
    observed0 = drawn[0]
    cutoff = np.quantile(observed0, treat_quantile)
    treated = observed0 > cutoff
    records = []
    for year, level in zip(years, levels):
        shrink_on = year >= shrink_from_year and treated_shrink > 0
        for i in range(n_banks):
            li = level[i]
            if shrink_on and treated[i]:
                li += math.log(1.0 - treated_shrink)
            records.append(BankRecord(
                bank_id=f"SYN{i:04d}",
                year=year,
                total_assets=float(math.exp(li)),
            ))
    if any(r.total_assets == 0.0 for r in records):  # a shrunk level underflowed
        raise _out_of_range(log_mean, log_sigma, treated_shrink)
    return records


def _out_of_range(log_mean: float, log_sigma: float, treated_shrink: float) -> ConfigError:
    return ConfigError(f"log_mean {log_mean!r}, log_sigma {log_sigma!r} and treated_shrink "
                       f"{treated_shrink!r} give an asset level that is not a finite float > 0")


def synth_panel_csv(n_banks: int, years: Sequence[int], **kwargs) -> str:
    return panel_csv_text(synth_panel(n_banks, years, **kwargs))


# --- DID over a panel ------------------------------------------------------------------

def did_from_panel(panel: BankPanel, base_year: int, quantile: float,
                   log_outcome: bool = True,
                   outcomes: dict[tuple[str, int], float] | None = None):
    """Assemble DID observations from a panel and run the regression.

    Default outcome is log total assets; ``outcomes`` overrides with an
    explicit (bank_id, year) -> value map (used by the CLI for custom
    outcome columns).
    """
    from .stats import did_regress

    treatment = assign_treatment(panel, base_year, quantile)
    obs = []
    for rec in panel.records:
        if outcomes is not None:
            val = outcomes[(rec.bank_id, rec.year)]
        else:
            val = math.log(rec.total_assets) if log_outcome else rec.total_assets
        obs.append((rec.bank_id, rec.year, val))
    return did_regress(obs, treatment), treatment


# --- serialization helpers ---------------------------------------------------------------

def ensure_writable(directory: str | Path) -> None:
    """Create the output directory and verify it accepts writes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    probe = directory / ".write_probe"
    try:
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("")
    finally:
        try:
            os.unlink(probe)
        except OSError:
            pass


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dump_json(obj: dict) -> str:
    """Deterministic JSON: sorted keys, repr floats (exact round trip)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """Aligned plain-text table for terminal output."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([f"{v:.4f}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
