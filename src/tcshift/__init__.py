"""Critical temperature of a BCS pairing model and its shift in a weak field."""

__version__ = "0.1.0"

from .birman_schwinger import (  # noqa: F401
    BsSolver,
    CriticalTemperature,
    PairState,
)
from .gl import GlCoefficients, a_functionals, compute_lambdas, compute_t, r_of_p  # noqa: F401
from .kernels import chi, g0, g1, g2, xi  # noqa: F401
from .model import (  # noqa: F401
    ExternalField,
    InteractionPotential,
    Numerics,
    PhysicalModel,
    load_config,
    validate_assumptions,
)
from .schrodinger import compute_dc, ground_energy, tc_of_h  # noqa: F401
