"""Bank-panel CSV ingestion and per-bank moment summaries.

Input: comma-separated, '.' decimal, UTF-8, mandatory header with columns
bank_id, quarter (yyyy-Qn), total_assets, tier1_equity, dividends,
equity_issuance, market_equity.  Debt derives as total assets minus tier 1
equity.  The per-bank summary reports the mean and standard deviation of
quarterly total-asset returns (the fully observed moment estimators) plus
their annualized versions (drift x4, volatility x2).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_QUARTER_RE = re.compile(r"^(\d{4})-Q([1-4])$")

COLUMNS = ("bank_id", "quarter", "total_assets", "tier1_equity",
           "dividends", "equity_issuance", "market_equity")


@dataclass(frozen=True)
class PanelRow:
    bank_id: str
    quarter: str
    total_assets: float
    tier1_equity: float
    dividends: float
    equity_issuance: float
    market_equity: float

    @property
    def quarter_index(self) -> int:
        m = _QUARTER_RE.match(self.quarter)
        if not m:
            raise ValidationError(f"bad quarter {self.quarter!r}")
        return 4 * int(m.group(1)) + (int(m.group(2)) - 1)

    @property
    def debt(self) -> float:
        return self.total_assets - self.tier1_equity


def ingest_panel(path, strict: bool = False) -> dict:
    """Parse and validate a panel CSV; returns {bank_id: bank dict}.

    Each bank dict carries rows, the log total-asset series, the debt
    series, and the quarterly/annualized return moments.  Row-level problems
    are collected as diagnostics (row number + reason); with ``strict`` the
    first problem raises.
    """
    banks: dict = {}
    diagnostics: list = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(COLUMNS) <= set(reader.fieldnames):
            raise ValidationError(
                f"header must contain {COLUMNS}; got {reader.fieldnames}")
        for lineno, rec in enumerate(reader, start=2):
            try:
                row = PanelRow(
                    bank_id=rec["bank_id"].strip(),
                    quarter=rec["quarter"].strip(),
                    total_assets=float(rec["total_assets"]),
                    tier1_equity=float(rec["tier1_equity"]),
                    dividends=float(rec["dividends"]),
                    equity_issuance=float(rec["equity_issuance"]),
                    market_equity=float(rec["market_equity"]),
                )
                for col in COLUMNS[2:]:
                    if not math.isfinite(getattr(row, col)):
                        raise ValidationError(f"{col}={getattr(row, col)!r} is not finite")
                if row.total_assets <= 0.0:
                    raise ValidationError("total_assets must be > 0")
                if row.tier1_equity > row.total_assets:
                    raise ValidationError("tier1_equity exceeds total_assets")
                row.quarter_index  # validates the quarter format
            except (ValidationError, ValueError, KeyError) as exc:
                msg = f"row {lineno}: {exc}"
                if strict:
                    raise ValidationError(msg) from exc
                diagnostics.append(msg)
                continue
            banks.setdefault(row.bank_id, []).append(row)

    out = {}
    for bank_id, rows in banks.items():
        rows.sort(key=lambda r: r.quarter_index)
        qi = [r.quarter_index for r in rows]
        if any(b <= a for a, b in zip(qi, qi[1:])):
            msg = f"bank {bank_id}: quarters not strictly increasing"
            if strict:
                raise ValidationError(msg)
            diagnostics.append(msg)
            continue
        assets = np.array([r.total_assets for r in rows])
        returns = assets[1:] / assets[:-1] - 1.0
        mean_q = float(np.mean(returns)) if returns.size else math.nan
        std_q = float(np.std(returns, ddof=1)) if returns.size > 1 else math.nan
        degenerate = returns.size > 1 and std_q == 0.0
        out[bank_id] = {
            "rows": rows,
            "log_total_assets": np.log(assets),
            "debt": np.array([r.debt for r in rows]),
            "n_quarters": len(rows),
            "return_mean_quarterly": mean_q,
            "return_std_quarterly": std_q,
            "alpha_hat_annual": 4.0 * mean_q if not math.isnan(mean_q) else math.nan,
            "sigma_hat_annual": 2.0 * std_q if not math.isnan(std_q) else math.nan,
            "degenerate_volatility": degenerate,
        }
    return {"banks": out, "diagnostics": diagnostics}
