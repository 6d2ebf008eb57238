"""Direct scattering transform and exact soliton synthesis for the
linearly ill-posed Boussinesq equation u_tt = u_xx + (u^2)_xx + u_xxxx."""

__version__ = "0.1.0"
__all__ = ["spectral", "volterra", "solitons", "scattering", "jumps", "verify", "fileio"]


def __getattr__(name):
    """A submodule, loaded on first use, through __import__ so that -X importtime lists it."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{name}")
    return globals()[name]
