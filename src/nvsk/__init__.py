"""nvsk: sensitivity budgets, photophysics, and fitting for NV-ensemble
DC magnetometry."""

__version__ = "0.1.0"

from .core import DiamondSample, PhysicalConstants
from .dephasing import (
    BathCoefficients,
    DephasingBudget,
    dq_t2star,
    nitrogen_bookkeeping,
    spin_bath_budget,
    strain_rate_from_fwhm,
    t2_strain_from_fwhm,
)
from .errors import ComputationError, NvskError, ValidationError
from .sensitivity import (
    IntensityRow,
    IntensityTable,
    MetricConfig,
    PhotonModel,
    SensingParams,
    optimal_nitrogen,
    optimal_tau,
    ramsey_sensitivity,
    simplified_metric,
    volume_normalized_sensitivity,
)

__all__ = [
    "__version__",
    "DiamondSample",
    "PhysicalConstants",
    "BathCoefficients",
    "DephasingBudget",
    "dq_t2star",
    "nitrogen_bookkeeping",
    "spin_bath_budget",
    "strain_rate_from_fwhm",
    "t2_strain_from_fwhm",
    "NvskError",
    "ValidationError",
    "ComputationError",
    "IntensityRow",
    "IntensityTable",
    "MetricConfig",
    "PhotonModel",
    "SensingParams",
    "optimal_nitrogen",
    "optimal_tau",
    "ramsey_sensitivity",
    "simplified_metric",
    "volume_normalized_sensitivity",
]
