"""Direct scattering transform and exact soliton synthesis for the
linearly ill-posed Boussinesq equation u_tt = u_xx + (u^2)_xx + u_xxxx."""

__version__ = "0.1.0"

from boussinesq_ist import spectral  # noqa: E402  (dependency order matters)
from boussinesq_ist import volterra  # noqa: E402
from boussinesq_ist import solitons  # noqa: E402
from boussinesq_ist import scattering  # noqa: E402
from boussinesq_ist import jumps  # noqa: E402
from boussinesq_ist import verify  # noqa: E402
from boussinesq_ist import fileio  # noqa: E402

__all__ = [
    "spectral",
    "volterra",
    "solitons",
    "scattering",
    "jumps",
    "verify",
    "fileio",
]
