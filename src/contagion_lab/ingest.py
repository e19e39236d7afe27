"""Bank-year panel ingestion, balancing, and treatment assignment.

Panels are long-format collections of bank-year observations. All
operations are pure: they validate on construction and return new
objects, so instances are safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DuplicateKey,
    EmptyResult,
    MalformedRow,
    MissingColumn,
    YearAbsent,
)

REQUIRED_COLUMNS = ("bank_id", "year", "total_assets")


@dataclass(frozen=True)
class BankRecord:
    """One bank-year observation. Assets are in millions of currency units."""

    bank_id: str
    year: int
    total_assets: float


@dataclass(frozen=True)
class BankPanel:
    """Ordered collection of bank-year records with validated invariants."""

    records: tuple[BankRecord, ...]
    years: tuple[int, ...] = field(default=())

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            key = (rec.bank_id, rec.year)
            if key in seen:
                raise DuplicateKey(f"duplicate bank-year pair {key}")
            seen.add(key)
            if not 0.0 < rec.total_assets < math.inf:
                raise MalformedRow(
                    f"bank {rec.bank_id!r} year {rec.year}: "
                    f"total_assets={rec.total_assets!r} must be finite and > 0"
                )
        years = tuple(sorted({rec.year for rec in self.records}))
        if self.years and self.years != years:
            raise MalformedRow(
                f"declared years {self.years} do not match records {years}"
            )
        object.__setattr__(self, "years", years)

    def __len__(self) -> int:
        return len(self.records)

    def bank_ids(self) -> tuple[str, ...]:
        """Distinct bank ids in first-appearance order."""
        seen: dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.bank_id, None)
        return tuple(seen)

    def year_slice(self, year: int) -> tuple[BankRecord, ...]:
        if year not in self.years:
            raise YearAbsent(f"year {year} not in panel years {self.years}")
        return tuple(r for r in self.records if r.year == year)

    def assets_for_year(self, year: int) -> tuple[tuple[str, ...], np.ndarray]:
        """(bank_ids, assets) for one year, in record order."""
        recs = self.year_slice(year)
        ids = tuple(r.bank_id for r in recs)
        return ids, np.array([r.total_assets for r in recs], dtype=float)


@dataclass(frozen=True)
class TreatmentAssignment:
    """Treated flag per bank, defined for every bank present in base_year."""

    treated: Mapping[str, bool]
    quantile: float
    base_year: int

    def treated_ids(self) -> tuple[str, ...]:
        return tuple(b for b, t in self.treated.items() if t)


def _parse_assets(raw: str | None, row_no: int) -> float:
    if raw is None or raw.strip() == "":
        raise MalformedRow(f"row {row_no}: missing total_assets")
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(f"row {row_no}: unparseable total_assets {raw!r}") from None
    if not 0.0 < value < math.inf:
        raise MalformedRow(f"row {row_no}: total_assets {raw!r} must be finite and > 0")
    return value


def load_panel(source, delimiter: str = ",") -> BankPanel:
    """Load a validated BankPanel from delimited UTF-8 text.

    ``source`` may be a path, which is opened and closed here, a byte or
    text stream, or raw bytes. The header must name the columns bank_id,
    year and total_assets; other columns are ignored. Rows with missing or
    invalid total_assets raise MalformedRow naming the offending row;
    repeated (bank_id, year) pairs raise DuplicateKey. Row order is
    preserved.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_panel(fh, delimiter)
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8"))
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")

    reader = csv.DictReader(source, delimiter=delimiter)
    if reader.fieldnames is None:
        raise MissingColumn("input has no header row")
    for col in REQUIRED_COLUMNS:
        if col not in reader.fieldnames:
            raise MissingColumn(f"missing required column {col!r}")

    records: list[BankRecord] = []
    seen: set[tuple[str, int]] = set()
    for row_no, row in enumerate(reader, start=2):  # header is row 1
        bank_id = (row.get("bank_id") or "").strip()
        if not bank_id:
            raise MalformedRow(f"row {row_no}: empty bank_id")
        raw_year = (row.get("year") or "").strip()
        try:
            year = int(raw_year)
        except ValueError:
            raise MalformedRow(f"row {row_no}: unparseable year {raw_year!r}") from None
        assets = _parse_assets(row.get("total_assets"), row_no)
        key = (bank_id, year)
        if key in seen:
            raise DuplicateKey(f"row {row_no}: duplicate bank-year pair {key}")
        seen.add(key)
        records.append(BankRecord(bank_id=bank_id, year=year, total_assets=assets))
    return BankPanel(records=tuple(records))


def balanced_panel(panel: BankPanel) -> BankPanel:
    """Restrict to banks observed in every year of the panel.

    Years are unchanged; raises EmptyResult if no bank spans all years.
    """
    if not panel.records:
        raise EmptyResult("empty panel")
    years = set(panel.years)
    by_bank: dict[str, set[int]] = {}
    for rec in panel.records:
        by_bank.setdefault(rec.bank_id, set()).add(rec.year)
    keep = {b for b, ys in by_bank.items() if ys == years}
    if not keep:
        raise EmptyResult("no bank is present in all years")
    return BankPanel(records=tuple(r for r in panel.records if r.bank_id in keep))


def assign_treatment(panel: BankPanel, base_year: int,
                     quantile: float = 0.75) -> TreatmentAssignment:
    """Flag banks whose base-year assets strictly exceed the empirical quantile.

    The quantile is the linear-interpolation (type 7) estimator, so banks
    exactly at the threshold land in the control group.
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    if base_year not in panel.years:
        raise YearAbsent(f"base year {base_year} not in panel years {panel.years}")
    ids, assets = panel.assets_for_year(base_year)
    cutoff = float(np.quantile(assets, quantile))  # numpy default is type 7
    treated = {bank: bool(a > cutoff) for bank, a in zip(ids, assets)}
    return TreatmentAssignment(treated=treated, quantile=quantile, base_year=base_year)


def panel_csv_text(records: Iterable[BankRecord]) -> str:
    """Render records in the canonical CSV schema (used by the synth command).

    Assets are written with repr so a reload parses to the identical float.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REQUIRED_COLUMNS)
    for r in records:
        writer.writerow([r.bank_id, r.year, repr(r.total_assets)])
    return buf.getvalue()
