"""Desk-scale verification lab for Poisson stochastic integral moment
inequalities, vector-valued Rosenthal inequalities, and random matrix norm
bounds, built on exact finite-space enumeration with Monte Carlo fallback.

Import names from their modules (``itolab.checks``, ``itolab.cli``, ...);
the package root holds only ``__version__``."""

__version__ = "0.1.0"
