"""Universality decisions and constrained pulse propagation for globally controlled simulators."""

__version__ = "0.1.0"
