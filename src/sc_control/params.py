"""Model parameter records with validated invariants.

All rates are annualized and time is measured in years everywhere; quarterly
data are converted at ingestion, never inside the solvers.  Records are
frozen dataclasses: once validated they are immutable and safe to share
across threads.  Solvers only accept validated records (validation is run in
``__post_init__``, so constructing a record is validating it).

Name collisions across the two models are resolved here: the income-jump
recovery fraction is ``recovery`` and the cointegration mean-reversion speed
is ``mean_reversion``, distinct from ``BankParams.kappa_min`` and
``BankParams.alpha``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

from .errors import (
    DiscountTooLow,
    NegativeMertonConstant,
    NonpositiveVolatility,
    ValidationError,
)


@dataclass(frozen=True)
class BankParams:
    """Constants of the bank capital-control model.

    Attributes
    ----------
    mu : debt (deposit) growth rate, 1/yr
    alpha : expected asset return, 1/yr
    sigma : asset return volatility, 1/sqrt(yr)
    delta : shareholder discount rate, 1/yr; must exceed max(mu, alpha)
    omega : proportional liquidation value of positive book equity, in [0, 1]
    kappa_min : regulatory minimum equity-to-debt ratio
    issue_cost_K : fixed equity-issuance cost per unit of debt
    delay_Delta : equity-issuance execution delay, yr
    issue_cap_sbar : maximum issuance per unit of debt
    noise_m : accounting signal noise level (0 = fully observed)
    rho : correlation between signal noise and asset shocks, in [-1, 1]
    conf_a : regulator confidence level for liquidation, in (0, 1)
    S_bar : upper bound of the conditional-variance domain; defaults to
        4*m*sigma*(1-rho), covering every initial variance used in practice
    """

    mu: float
    alpha: float
    sigma: float
    delta: float
    omega: float
    kappa_min: float
    issue_cost_K: float = 0.002
    delay_Delta: float = 0.5
    issue_cap_sbar: float = 1.0
    noise_m: float = 0.0
    rho: float = 0.0
    conf_a: float = 0.8
    S_bar: float | None = None

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise NonpositiveVolatility(f"sigma={self.sigma} must be > 0")
        if self.delta <= max(self.mu, self.alpha):
            raise DiscountTooLow(
                f"delta={self.delta} must exceed max(mu, alpha)="
                f"{max(self.mu, self.alpha)}"
            )
        if not 0.0 <= self.omega <= 1.0:
            raise ValidationError(f"omega={self.omega} outside [0, 1]")
        if self.noise_m < 0.0:
            raise ValidationError(f"noise_m={self.noise_m} must be >= 0")
        if not -1.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho={self.rho} outside [-1, 1]")
        if not 0.0 < self.conf_a < 1.0:
            raise ValidationError(f"conf_a={self.conf_a} outside (0, 1)")
        if self.kappa_min <= 0.0:
            raise ValidationError(f"kappa_min={self.kappa_min} must be > 0")
        if self.delay_Delta < 0.0:
            raise ValidationError(f"delay_Delta={self.delay_Delta} must be >= 0")
        if self.issue_cost_K < 0.0:
            raise ValidationError(f"issue_cost_K={self.issue_cost_K} must be >= 0")
        if self.S_bar is None:
            object.__setattr__(self, "S_bar", 4.0 * self.s_infinity)
        if self.noise_m > 0.0 and self.S_bar <= 0.0:
            raise ValidationError(f"S_bar={self.S_bar} must be > 0 when noise_m > 0")

    @property
    def s_infinity(self) -> float:
        """Long-run conditional variance m*sigma*(1-rho); 0 when noiseless."""
        return self.noise_m * self.sigma * (1.0 - self.rho)


@dataclass(frozen=True)
class RetireParams:
    """Constants of the retirement portfolio-choice model.

    ``theta`` (Sharpe ratio) and ``K_bar`` (post-retirement Merton
    consumption rate) are derived on validation.  ``power_nu`` switches the
    income-jump size from a fixed ``recovery`` fraction to a power
    distribution with density nu*z^(nu-1) on [0, 1].  ``eis_psi`` enables the
    recursive-utility variant, ``horizon_T`` the mandatory-retirement one.
    """

    r: float
    mu_stock: float
    sigma_stock: float
    gamma: float
    B: float
    beta: float
    mu_income: float
    sigma_income: float
    recovery: float = 0.8
    jump_intensity: float = 0.0
    sigma_z: float | None = None
    mean_reversion: float = 0.0
    z_bar: float = 0.0
    power_nu: float | None = None
    eis_psi: float | None = None
    horizon_T: float | None = None
    theta: float = field(init=False, default=0.0)
    K_bar: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.sigma_stock <= 0.0:
            raise NonpositiveVolatility(f"sigma_stock={self.sigma_stock} must be > 0")
        if self.mu_stock <= self.r:
            raise ValidationError("mu_stock must exceed r (positive premium)")
        if self.gamma <= 0.0 or self.gamma == 1.0:
            raise ValidationError(f"gamma={self.gamma} must be > 0 and != 1")
        if self.B <= 1.0:
            raise ValidationError(f"leisure preference B={self.B} must exceed 1")
        if not 0.0 <= self.recovery <= 1.0:
            raise ValidationError(f"recovery={self.recovery} outside [0, 1]")
        if self.jump_intensity < 0.0:
            raise ValidationError("jump_intensity must be >= 0")
        if self.mean_reversion < 0.0:
            raise ValidationError("mean_reversion must be >= 0")
        if self.power_nu is not None and self.power_nu <= 0.0:
            raise ValidationError(f"power_nu={self.power_nu} must be > 0")
        if self.eis_psi is not None and self.eis_psi <= 0.0:
            raise ValidationError(f"eis_psi={self.eis_psi} must be > 0")
        if self.horizon_T is not None and self.horizon_T <= 0.0:
            raise ValidationError(f"horizon_T={self.horizon_T} must be > 0")
        if self.sigma_z is None:
            # zero instantaneous stock/income correlation (the calibrated case)
            object.__setattr__(self, "sigma_z", self.sigma_stock)
        if not (finite_number(self.sigma_z) and self.sigma_z > 0.0):
            # the z grid spans z_bar +- 8 sigma_z
            raise ValidationError(f"sigma_z={self.sigma_z!r} must be a finite number > 0")
        theta = (self.mu_stock - self.r) / self.sigma_stock
        k_bar = self.beta / self.gamma - (1.0 - self.gamma) / self.gamma * (
            self.r + theta**2 / (2.0 * self.gamma)
        )
        if k_bar <= 0.0:
            raise NegativeMertonConstant(
                f"K_bar={k_bar} must be > 0 for a finite post-retirement value"
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "K_bar", k_bar)

    def k_bar_psi(self) -> float:
        """Recursive-utility consumption rate psi*beta+(1-psi)(r+theta^2/2g)."""
        psi = self.eis_psi if self.eis_psi is not None else 1.0 / self.gamma
        k = psi * self.beta + (1.0 - psi) * (self.r + self.theta**2 / (2.0 * self.gamma))
        if k <= 0.0:
            raise NegativeMertonConstant(f"K_bar(psi)={k} must be > 0")
        return k


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def finite_number(x) -> bool:
    """True for a real number, not a bool, that is neither infinite nor NaN."""
    return _real(x) and math.isfinite(x)


def _check_grid(n_x: int, n_y: int, penalty_schedule) -> None:
    if n_x < 3 or n_y < 3:
        raise ValidationError("node counts must be >= 3 per axis")
    if not penalty_schedule or min(penalty_schedule) <= 0.0:
        raise ValidationError("penalty_schedule must hold at least one positive penalty")


@dataclass(frozen=True)
class BankGrid:
    """Discretization of the (X_hat, S) domain of the partially observed
    bank solver: bounds of both axes, ``n_x`` nodes in X, ``n_y`` intervals
    in S, node stretching in X, and the penalty schedule whose last entry
    penalizes the constraints.  The S axis splits the ``n_y`` intervals at
    the invariant line, which it inserts as a node of its own, and gives
    each side at least 3: it has ``n_y + 1`` nodes, more when a side would
    get fewer (82 at 401 x 81, 42 at 201 x 41, 8 at 21 x 7)."""

    x_lo: float = 0.0
    x_hi: float = 1.0
    n_x: int = 201
    y_lo: float = 0.0
    y_hi: float = 1.0
    n_y: int = 81
    stretching: str = "uniform"  # "uniform" | "geometric"
    penalty_schedule: tuple = (1e3, 1e4, 1e5)

    def __post_init__(self):
        _check_grid(self.n_x, self.n_y, self.penalty_schedule)
        if self.stretching not in ("uniform", "geometric"):
            raise ValidationError(f"unknown stretching {self.stretching!r}")
        if self.x_hi <= self.x_lo or self.y_hi <= self.y_lo:
            raise ValidationError("grid bounds must be increasing")


@dataclass(frozen=True)
class RetireGrid:
    """Discretization of the retirement solver: ``n_x`` nodes on xi in
    [0, 1] and ``n_y`` on z in z_bar +- 8 sigma_z (the domain follows from
    the model) and the penalty continuation schedule."""

    n_x: int = 201
    n_y: int = 161
    penalty_schedule: tuple = (1e3, 1e4, 1e5)

    def __post_init__(self):
        _check_grid(self.n_x, self.n_y, self.penalty_schedule)


def check_fields(label: str, d: dict, known, required) -> None:
    """Raise ValidationError if ``d`` is not a dict, or naming the keys of
    ``d`` outside ``known``, or else the ``required`` keys it lacks;
    ``label`` names the block."""
    if not isinstance(d, dict):
        raise ValidationError(f"{label} must be a JSON object, not {type(d).__name__}")
    unknown = set(d) - set(known)
    if unknown:
        raise ValidationError(f"unknown fields for {label}: {sorted(unknown)}")
    missing = [name for name in required if name not in d]
    if missing:
        raise ValidationError(f"missing fields for {label}: {missing}")


def _type_error(f, val) -> str | None:
    """Why ``val`` cannot be the value of field ``f``, or None if it can."""
    kind = f.type if isinstance(f.type, str) else f.type.__name__
    if val is None:
        return None if f.default is None else "must not be null"
    if kind.startswith("float") and not _real(val):
        return "must be a real number"
    if kind == "int" and not (isinstance(val, numbers.Integral) and not isinstance(val, bool)):
        return "must be an integer"
    if kind == "tuple" and not (isinstance(val, (list, tuple)) and all(map(_real, val))):
        return "must be a list of numbers"
    return None


def from_dict(cls, d: dict, label: str):
    """Build the record ``cls`` from a plain dict (e.g. a JSON config block).

    Unknown and missing fields, non-finite numbers (NaN or infinite, also
    inside a list), and values of the wrong type raise
    :class:`ValidationError` naming the field: a bool or a string for a
    number, a non-integer for an ``int``, a penalty schedule that is not a
    list of numbers, or a null where the default is not null.  Construction
    then validates the record's invariants.  ``label``, the config key the
    block was read from, names it in the messages.
    """
    known = [f for f in fields(cls) if f.init]
    check_fields(label, d, [f.name for f in known],
                 [f.name for f in known
                  if f.default is MISSING and f.default_factory is MISSING])
    for key, val in d.items():
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (val if isinstance(val, (list, tuple)) else [val])):
            raise ValidationError(f"field {key} is not finite: {val!r}")
    for f in known:
        if f.name in d and (why := _type_error(f, d[f.name])):
            raise ValidationError(f"field {f.name} {why}, not {d[f.name]!r}")
    if "penalty_schedule" in d:
        d = {**d, "penalty_schedule": tuple(d["penalty_schedule"])}
    return cls(**d)

