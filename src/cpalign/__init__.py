"""Collaborative BEV perception alignment: numerics, alignment ops, simulation."""

__version__ = "0.1.0"

__all__ = ["__version__"]
