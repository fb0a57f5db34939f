"""Problem definition: pairing interaction, external potential, chemical potential.

Validates the standing requirements on the inputs (non-negative bounded
interaction with bounded r*V, bounded Lipschitz external potential, and the
zero-temperature coupling criterion) and owns the JSON configuration schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigError
from .grids import GridPair, build_momentum_grid, build_radial_grid

__all__ = [
    "InteractionPotential",
    "ExternalField",
    "PhysicalModel",
    "Numerics",
    "ValidationItem",
    "ValidationReport",
    "load_config",
    "model_from_dict",
    "model_to_dict",
    "validate_assumptions",
]

V_FAMILIES = ("gaussian", "exponential", "square_well", "tabulated")
W_FAMILIES = (
    "zero",
    "constant",
    "gaussian_well",
    "square_well_1d",
    "tabulated_radial",
    "tabulated_1d",
)
W_DIMENSIONALITIES = ("radial_3d", "one_d")


def _as_table(table) -> np.ndarray:
    t = np.asarray(table, dtype=float)
    if t.ndim != 2 or t.shape[1] != 2 or t.shape[0] < 2:
        raise ConfigError("table must be a list of (x, value) pairs")
    if np.any(np.diff(t[:, 0]) <= 0):
        raise ConfigError("table abscissae must be strictly increasing")
    return t


@dataclass(frozen=True)
class InteractionPotential:
    """Non-negative, spherically symmetric pairing interaction V(r)."""

    family: str
    amplitude: float = 1.0
    range: float = 1.0
    table: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.family not in V_FAMILIES:
            raise ConfigError(f"unknown V family {self.family!r}")
        if self.family == "tabulated":
            if self.table is None:
                raise ConfigError("tabulated V requires a table")
            tab = _as_table(self.table)
            if np.any(tab[:, 1] < 0):
                raise ConfigError("V table values must be non-negative")
            object.__setattr__(self, "table", tab)
        else:
            if self.amplitude < 0:
                raise ConfigError("V amplitude must be non-negative")
            if self.range <= 0:
                raise ConfigError("V range must be positive")

    @property
    def reach(self) -> float:
        """Length scale used for the default radial truncation."""
        if self.family == "tabulated":
            return float(self.table[-1, 0])
        return self.range

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("r must be non-negative")
        if self.family == "gaussian":
            out = self.amplitude * np.exp(-((r / self.range) ** 2))
        elif self.family == "exponential":
            out = self.amplitude * np.exp(-r / self.range)
        elif self.family == "square_well":
            out = np.where(r <= self.range, self.amplitude, 0.0)
        else:
            if np.any(r > self.table[-1, 0]):
                raise ValueError("r beyond the last table node")
            out = np.interp(r, self.table[:, 0], self.table[:, 1])
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ExternalField:
    """Bounded external potential W, radial in 3D or depending on one coordinate."""

    family: str
    amplitude: float = 0.0
    range: float = 1.0
    dimensionality: str = "radial_3d"
    table: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.family not in W_FAMILIES:
            raise ConfigError(f"unknown W family {self.family!r}")
        if self.dimensionality not in W_DIMENSIONALITIES:
            raise ConfigError(
                "W dimensionality must be radial_3d or one_d; general 3D fields are rejected"
            )
        if self.family == "square_well_1d" and self.dimensionality != "one_d":
            raise ConfigError("square_well_1d requires one_d dimensionality")
        if self.family == "tabulated_radial" and self.dimensionality != "radial_3d":
            raise ConfigError("tabulated_radial requires radial_3d dimensionality")
        if self.family == "tabulated_1d" and self.dimensionality != "one_d":
            raise ConfigError("tabulated_1d requires one_d dimensionality")
        if self.family in ("tabulated_radial", "tabulated_1d"):
            if self.table is None:
                raise ConfigError("tabulated W requires a table")
            object.__setattr__(self, "table", _as_table(self.table))
        elif self.range <= 0:
            raise ConfigError("W range must be positive")

    @property
    def reach(self) -> float:
        if self.table is not None:
            return float(self.table[-1, 0])
        return self.range

    def __call__(self, x):
        """Evaluate W on the radial coordinate (radial_3d) or the 1D coordinate."""
        x = np.asarray(x, dtype=float)
        if self.family == "zero":
            out = np.zeros_like(x)
        elif self.family == "constant":
            out = np.full_like(x, self.amplitude)
        elif self.family == "gaussian_well":
            out = self.amplitude * np.exp(-((x / self.range) ** 2))
        elif self.family == "square_well_1d":
            out = np.where(np.abs(x) <= self.range, self.amplitude, 0.0)
        else:
            t = self.table
            a = np.abs(x) if self.dimensionality == "radial_3d" else x
            out = np.interp(np.clip(a, t[0, 0], t[-1, 0]), t[:, 0], t[:, 1])
        return out if out.ndim else float(out)

    def boundary_value(self, radius: float) -> float:
        """Estimate of the limit of W at the truncation boundary."""
        if self.dimensionality == "one_d":
            return min(float(self(radius)), float(self(-radius)))
        return float(self(radius))


@dataclass(frozen=True)
class PhysicalModel:
    V: InteractionPotential
    W: ExternalField
    mu: float
    h_values: tuple = ()

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ConfigError("mu must be finite")
        hs = tuple(float(h) for h in self.h_values)
        for h in hs:
            if not (0.0 < h < 1.0):
                raise ConfigError("each h value must lie in (0, 1)")
        object.__setattr__(self, "h_values", hs)


@dataclass(frozen=True)
class Numerics:
    """Discretization knobs; ``None`` entries fall back to model-derived defaults."""

    r_max: Optional[float] = None
    p_max: Optional[float] = None
    n_r: int = 400
    n_p: int = 400
    beta_bracket: tuple = (0.1, 100.0)
    beta_c_rel_tol: float = 1e-8
    gap_tol: float = 1e-6
    guard_eps: Optional[float] = None
    domain_radius: Optional[float] = None
    n_points: int = 2000

    def __post_init__(self):
        """Reject values the solvers cannot run with; the messages name configuration keys."""
        lo, hi = self.beta_bracket if len(self.beta_bracket) == 2 else (0.0, 0.0)
        if not (_positive(lo) and _positive(hi) and lo < hi):
            raise ConfigError("beta_bracket must be an increasing pair of positive numbers")
        if not _positive(self.beta_c_rel_tol):
            raise ConfigError("tolerances.beta_c_rel must be positive")
        if self.n_points < 100:
            raise ConfigError("n_points must be at least 100")
        for key, value in (
            ("r_max", self.r_max),
            ("p_max", self.p_max),
            ("domain_radius", self.domain_radius),
            ("tolerances.guard_eps", self.guard_eps),
        ):
            if value is not None and not _positive(value):
                raise ConfigError(f"{key} must be positive")

    def resolved_r_max(self, model: PhysicalModel) -> float:
        if self.r_max is not None:
            return float(self.r_max)
        if model.V.family == "tabulated":
            return model.V.reach
        return 12.0 * model.V.reach

    def resolved_p_max(self, model: PhysicalModel) -> float:
        if self.p_max is not None:
            return float(self.p_max)
        return max(8.0, 6.0 * math.sqrt(max(model.mu, 1.0)))

    def resolved_guard(self, model: PhysicalModel) -> float:
        if self.guard_eps is not None:
            return float(self.guard_eps)
        return 1e-6 * max(1.0, abs(model.mu))

    def build_grids(self, model: PhysicalModel, scale: int = 1, guarded: bool = False):
        """Grid pair at ``scale`` times the configured resolution; with ``guarded``
        the momentum grid leaves out the belt |p^2 - mu| < ``resolved_guard``.
        """
        guard = self.resolved_guard(model) if guarded else 0.0
        rg = build_radial_grid(self.resolved_r_max(model), scale * self.n_r)
        pg = build_momentum_grid(self.resolved_p_max(model), scale * self.n_p, model.mu, guard)
        return GridPair(rg, pg)


@dataclass
class ValidationItem:
    name: str
    passed: bool
    measured: float
    detail: str


@dataclass
class ValidationReport:
    items: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def __getitem__(self, name: str) -> ValidationItem:
        for item in self.items:
            if item.name == name:
                return item
        raise KeyError(name)


def validate_assumptions(model: PhysicalModel, numerics: Numerics | None = None) -> ValidationReport:
    """Check the model against the standing requirements; never raises.

    Items: V non-negative and bounded, r*V bounded, W bounded with a finite
    sampled Lipschitz quotient, and the zero-temperature coupling criterion
    (top eigenvalue of the 1/|p^2-mu| operator above 1, computed on a
    mu-guarded grid; reported together with its grid-refinement delta).
    """
    from .birman_schwinger import sup_spec_zero_temperature

    numerics = numerics or Numerics()
    report = ValidationReport()
    r_max = numerics.resolved_r_max(model)
    r = np.linspace(0.0, r_max, 4001)
    v = model.V(r)

    report.items.append(
        ValidationItem(
            name="V_nonnegative_bounded",
            passed=bool(np.all(v >= 0.0) and np.all(np.isfinite(v))),
            measured=float(v.max()),
            detail="sup V on the sample grid",
        )
    )
    rv = r * v
    report.items.append(
        ValidationItem(
            name="rV_bounded",
            passed=bool(np.all(np.isfinite(rv))),
            measured=float(rv.max()),
            detail="sup r*V on the sample grid",
        )
    )

    w_radius = numerics.domain_radius or 20.0 * model.W.reach
    x = np.linspace(-w_radius, w_radius, 4001)
    coord = np.abs(x) if model.W.dimensionality == "radial_3d" else x
    wv = model.W(coord)
    lipschitz = float(np.max(np.abs(np.diff(wv)) / np.diff(x)))
    report.items.append(
        ValidationItem(
            name="W_bounded_lipschitz",
            passed=bool(np.all(np.isfinite(wv)) and math.isfinite(lipschitz)),
            measured=lipschitz,
            detail=f"sampled Lipschitz quotient; sup |W| = {float(np.max(np.abs(wv)))}",
        )
    )

    sup0, delta = sup_spec_zero_temperature(model, numerics)
    report.items.append(
        ValidationItem(
            name="zero_temperature_coupling",
            passed=bool(sup0 > 1.0),
            measured=sup0,
            detail=f"top eigenvalue of the 1/|p^2-mu| operator; refinement delta {delta:.3e}",
        )
    )
    return report


def _positive(x) -> bool:
    return math.isfinite(x) and x > 0


def _plain(value):
    """``value`` as JSON would hold it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return list(value) if isinstance(value, tuple) else value


def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"missing key {key!r} in {ctx}")
    return d[key]


def model_from_dict(cfg: dict) -> tuple[PhysicalModel, Numerics]:
    """Build a model and numerics block from a parsed configuration mapping."""
    if not isinstance(cfg, dict):
        raise ConfigError("configuration must be a JSON object")
    vd = _require(cfg, "V", "config")
    wd = _require(cfg, "W", "config")
    try:
        V = InteractionPotential(
            family=_require(vd, "family", "V"),
            amplitude=float(vd.get("amplitude", 1.0)),
            range=float(vd.get("range", 1.0)),
            table=vd.get("table"),
        )
        W = ExternalField(
            family=_require(wd, "family", "W"),
            amplitude=float(wd.get("amplitude", 0.0)),
            range=float(wd.get("range", 1.0)),
            dimensionality=wd.get("dimensionality", "radial_3d"),
            table=wd.get("table"),
        )
        model = PhysicalModel(
            V=V,
            W=W,
            mu=float(_require(cfg, "mu", "config")),
            h_values=tuple(cfg.get("h_values", ())),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc

    nd = cfg.get("numerics", {})
    tol = nd.get("tolerances", {})
    try:
        numerics = Numerics(
            r_max=nd.get("r_max"),
            p_max=nd.get("p_max"),
            n_r=int(nd.get("n_r", 400)),
            n_p=int(nd.get("n_p", 400)),
            beta_bracket=tuple(nd.get("beta_bracket", (0.1, 100.0))),
            beta_c_rel_tol=float(tol.get("beta_c_rel", 1e-8)),
            gap_tol=float(tol.get("gap_tol", 1e-6)),
            guard_eps=tol.get("guard_eps"),
            domain_radius=nd.get("domain_radius"),
            n_points=int(nd.get("n_points", 2000)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed numerics block: {exc}") from exc
    return model, numerics


def model_to_dict(model: PhysicalModel, numerics: Numerics) -> dict:
    """The configuration mapping that ``model_from_dict`` reads back as (model, numerics)."""
    n = numerics
    return {
        "V": {f.name: _plain(getattr(model.V, f.name)) for f in fields(model.V)},
        "W": {f.name: _plain(getattr(model.W, f.name)) for f in fields(model.W)},
        "mu": model.mu,
        "h_values": list(model.h_values),
        "numerics": {
            "r_max": n.r_max,
            "p_max": n.p_max,
            "n_r": n.n_r,
            "n_p": n.n_p,
            "beta_bracket": list(n.beta_bracket),
            "domain_radius": n.domain_radius,
            "n_points": n.n_points,
            "tolerances": {
                "beta_c_rel": n.beta_c_rel_tol,
                "gap_tol": n.gap_tol,
                "guard_eps": n.guard_eps,
            },
        },
    }


def load_config(path) -> tuple[PhysicalModel, Numerics]:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return model_from_dict(cfg)
