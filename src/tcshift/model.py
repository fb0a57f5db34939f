"""Problem definition: pairing interaction, external potential, chemical potential.

Owns the JSON configuration schema, whose loader refuses a negative or
unbounded interaction and an unbounded external potential, and checks the
zero-temperature coupling criterion, which no single field decides.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import MISSING, dataclass, field, fields
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
    "read_config",
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
    if not np.all(np.isfinite(t)):
        raise ConfigError("table entries must be finite")
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
        _coerce(self, "V.", amplitude=float, range=float)
        if not (math.isfinite(self.amplitude) and math.isfinite(self.range)):
            raise ConfigError("V amplitude and range must be finite")
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

    @property
    def gain(self) -> float:
        """The factor V applies to its shape: the amplitude; 1 for a tabulated V, which ignores it."""
        return 1.0 if self.family == "tabulated" else self.amplitude

    def shape(self, r):
        """The unit-amplitude profile, so that V(r) = gain * shape(r); a tabulated V's shape is its table."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("r must be non-negative")
        if self.family == "gaussian":
            out = np.exp(-((r / self.range) ** 2))
        elif self.family == "exponential":
            out = np.exp(-r / self.range)
        elif self.family == "square_well":
            out = np.where(r <= self.range, 1.0, 0.0)
        else:
            if np.any(r > self.table[-1, 0]):
                raise ValueError("r beyond the last table node")
            out = np.interp(r, self.table[:, 0], self.table[:, 1])
        return out if out.ndim else float(out)

    def __call__(self, r):
        return self.gain * self.shape(r)


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
        _coerce(self, "W.", amplitude=float, range=float)
        if not (math.isfinite(self.amplitude) and math.isfinite(self.range)):
            raise ConfigError("W amplitude and range must be finite")
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
        """Extent of W's structure: its range, or a table's largest |abscissa|."""
        if self.table is not None:
            return float(np.abs(self.table[:, 0]).max())
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

    def boundary_value(self, coupling: float = 1.0) -> float:
        """Lower limit of coupling * W at infinity, the bottom of its essential spectrum.

        In one_d the two ends of W may differ, and a negative coupling turns
        the higher one into the lower end of coupling * W.
        """
        ends = (math.inf, -math.inf) if self.dimensionality == "one_d" else (math.inf,)
        return min(coupling * float(self(end)) for end in ends)

    def infimum(self, coupling: float = 1.0) -> float:
        """Infimum of coupling * W over all of space; a table's lies at one of its nodes."""
        if self.table is not None:
            return float(np.min(coupling * self.table[:, 1]))
        if self.family == "zero":
            return 0.0
        if self.family == "constant":
            return coupling * self.amplitude
        # gaussian and square wells: coupling * amplitude at the centre, 0 far out
        return min(0.0, coupling * self.amplitude)

    def bargmann_integral(self, coupling: float = 1.0) -> float:
        """The integral of r (b - coupling * W(r))_+ over r > 0, exactly; radial_3d only.

        b is ``boundary_value(coupling)``.  By Bargmann's bound (Proc. Natl.
        Acad. Sci. USA 38, 961 (1952)) p^2 + coupling * W has no eigenvalue
        below b on L2(R^3) when the integral is below 1.  A gaussian well
        gives (-coupling * amplitude)_+ range^2 / 2; a table is integrated
        segment by segment, W being linear between its nodes and constant
        outside them.
        """
        if self.dimensionality != "radial_3d":
            raise ValueError("the Bargmann integral is defined for radial_3d fields only")
        if self.family == "gaussian_well":
            return max(0.0, -coupling * self.amplitude) * (self.range * self.range) / 2.0
        if self.table is None:  # zero and constant: coupling * W is b everywhere
            return 0.0
        b = self.boundary_value(coupling)
        x = np.concatenate(([0.0], self.table[self.table[:, 0] > 0.0, 0]))
        f = b - coupling * self(x)
        total = 0.0
        for x0, x1, f0, f1 in zip(x[:-1], x[1:], f[:-1], f[1:]):
            if f0 <= 0.0 and f1 <= 0.0:
                continue
            if f0 < 0.0 or f1 < 0.0:  # keep the part on the positive side of the zero
                z = x0 + (x1 - x0) * f0 / (f0 - f1)
                x0, f0, x1, f1 = (x0, f0, z, 0.0) if f0 > 0.0 else (z, 0.0, x1, f1)
            # r times a linear function, integrated exactly over [x0, x1]
            total += (x1 - x0) * (f0 * (2.0 * x0 + x1) + f1 * (x0 + 2.0 * x1)) / 6.0
        return float(total)


@dataclass(frozen=True)
class PhysicalModel:
    V: InteractionPotential
    W: ExternalField
    mu: float
    h_values: tuple = ()

    def __post_init__(self):
        _coerce(self, "", mu=float, h_values=_reals)
        if not math.isfinite(self.mu):
            raise ConfigError("mu must be finite")
        if not all(0.0 < h < 1.0 for h in self.h_values):
            raise ConfigError("each h value must lie in (0, 1)")


# numerics.tolerances: each configuration key and the Numerics field it sets
TOLERANCES = {"beta_c_rel": "beta_c_rel_tol", "gap_tol": "gap_tol"}


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
    domain_radius: Optional[float] = None
    n_points: int = 2000

    def __post_init__(self):
        """Reject values the solvers cannot run with; the messages name configuration keys."""
        _coerce(
            self, "numerics.", r_max=_real_or_none, p_max=_real_or_none, n_r=_count, n_p=_count,
            beta_bracket=_reals, beta_c_rel_tol=float, gap_tol=float, domain_radius=_real_or_none,
            n_points=_count,
        )
        lo, hi = self.beta_bracket if len(self.beta_bracket) == 2 else (0.0, 0.0)
        if not (_positive(lo) and _positive(hi) and lo < hi):
            raise ConfigError("beta_bracket must be an increasing pair of positive numbers")
        for key, name in TOLERANCES.items():
            if not _positive(getattr(self, name)):
                raise ConfigError(f"tolerances.{key} must be positive")
        for key, least in (("n_r", 8), ("n_p", 8), ("n_points", 100)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}")
        for key, value in (
            ("r_max", self.r_max),
            ("p_max", self.p_max),
            ("domain_radius", self.domain_radius),
        ):
            if value is not None and not _positive(value):
                raise ConfigError(f"{key} must be positive")

    def resolved_r_max(self, model: PhysicalModel) -> float:
        if self.r_max is not None:
            if model.V.family == "tabulated" and self.r_max > model.V.reach:
                raise ConfigError(
                    f"r_max {self.r_max:g} lies beyond the last V table node {model.V.reach:g}"
                )
            return float(self.r_max)
        if model.V.family == "tabulated":
            return model.V.reach
        return 12.0 * model.V.reach

    def resolved_p_max(self, model: PhysicalModel) -> float:
        if self.p_max is not None:
            return float(self.p_max)
        return max(8.0, 6.0 * math.sqrt(max(model.mu, 1.0)))

    def build_grids(self, model: PhysicalModel) -> GridPair:
        """Grid pair at the configured resolution."""
        rg = build_radial_grid(self.resolved_r_max(model), self.n_r)
        pg = build_momentum_grid(self.resolved_p_max(model), self.n_p, model.mu)
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


def validate_assumptions(model: PhysicalModel, numerics: Numerics, solver) -> ValidationReport:
    """Check the zero-temperature coupling criterion T_c > 0; never raises.

    For mu > 0 it holds for every V >= 0 that is not identically zero
    (Hainzl-Hamza-Seiringer-Solovej, Commun. Math. Phys. 281 (2008)),
    checked as sup V > 0 on the sample grid.  For mu <= 0 it is
    lambda(inf) > 1, the top eigenvalue of sqrt(V) (p^2 - mu)^{-1} sqrt(V)
    read off ``solver``, the production ``BsSolver``.  The loader refuses a
    negative or unbounded V and an unbounded W; W's Lipschitz continuity,
    which the paper assumes, is not checked.
    """
    from .birman_schwinger import sup_spec_zero_temperature

    report = ValidationReport()
    r = np.linspace(0.0, numerics.resolved_r_max(model), 4001)
    v = model.V(r)
    if model.mu > 0.0:
        measured, threshold = float(v.max()), 0.0
        detail = (
            "mu > 0: T_c > 0 for every V >= 0 not identically zero "
            "(Hainzl-Hamza-Seiringer-Solovej 2008); sup V on the sample grid"
        )
    else:
        measured, threshold = sup_spec_zero_temperature(solver), 1.0
        detail = "mu <= 0: top eigenvalue of the 1/(p^2 - mu) operator on the production grids"
    report.items.append(
        ValidationItem(
            name="zero_temperature_coupling",
            passed=bool(measured > threshold),
            measured=measured,
            detail=detail,
        )
    )
    return report


def _positive(x) -> bool:
    return math.isfinite(x) and x > 0


def _count(value) -> int:
    """An integral count: an int, or a float with an integral value; never a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool):
        raise TypeError("a count cannot be a boolean")
    return operator.index(value)


def _real_or_none(value) -> Optional[float]:
    return None if value is None else float(value)


def _reals(values) -> tuple:
    if isinstance(values, str):
        raise TypeError("a list of numbers is expected, not a string")
    return tuple(float(v) for v in values)


def _coerce(obj, prefix: str, **casts) -> None:
    """Replace each named field of the frozen dataclass ``obj`` by ``cast(value)``.

    A value the cast refuses raises a ConfigError naming its configuration
    key: ``prefix`` and the field name, or its ``tolerances`` key.
    """
    for name, cast in casts.items():
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, cast(value))
        except (TypeError, ValueError, OverflowError) as exc:
            keys = {attr: f"tolerances.{key}" for key, attr in TOLERANCES.items()}
            raise ConfigError(f"{prefix}{keys.get(name, name)} cannot be {value!r}: {exc}") from exc


def _plain(value):
    """``value`` as JSON holds it; a dataclass becomes the object of its fields."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _entry(value, name: str, keys) -> dict:
    """Configuration object ``value`` at dotted path ``name``; every key must be in ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name or 'configuration'} must be a JSON object")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown configuration key {f'{name}.{key}' if name else key!r}")
    return dict(value)


def _kwargs(cls, value, name: str, nested=()) -> dict:
    """``cls``'s keyword arguments from the object ``value``, keyed by field name.

    The keys may also be ``nested`` objects, which the caller pops; an absent key
    takes its field default, and a field without one is required.
    """
    kwargs = _entry(value, name, [f.name for f in fields(cls)] + list(nested))
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING:
            raise ConfigError(f"missing key {f.name!r} in {name or 'configuration'}")
    return kwargs


def model_from_dict(cfg: dict) -> tuple[PhysicalModel, Numerics]:
    """Build a model and numerics block from a parsed configuration mapping."""
    top = _kwargs(PhysicalModel, cfg, "", nested=("numerics",))
    nd = _entry(
        top.pop("numerics", {}),
        "numerics",
        [f.name for f in fields(Numerics) if f.name not in TOLERANCES.values()] + ["tolerances"],
    )
    tol = _entry(nd.pop("tolerances", {}), "numerics.tolerances", TOLERANCES)
    nd.update((TOLERANCES[key], value) for key, value in tol.items())
    V = _kwargs(InteractionPotential, top.pop("V"), "V")
    W = _kwargs(ExternalField, top.pop("W"), "W")
    try:
        model = PhysicalModel(V=InteractionPotential(**V), W=ExternalField(**W), **top)
        return model, Numerics(**nd)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc


def model_to_dict(model: PhysicalModel, numerics: Numerics) -> dict:
    """The configuration mapping that ``model_from_dict`` reads back as (model, numerics)."""
    nd = _plain(numerics)
    nd["tolerances"] = {key: nd.pop(name) for key, name in TOLERANCES.items()}
    return {**_plain(model), "numerics": nd}


def read_config(path) -> dict:
    """The parsed JSON of configuration file ``path``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def load_config(path) -> tuple[PhysicalModel, Numerics]:
    return model_from_dict(read_config(path))
