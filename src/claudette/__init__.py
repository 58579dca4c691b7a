"""Toolkit for detecting potentially unfair clauses in Terms of Service."""

__version__ = "0.1.0"
