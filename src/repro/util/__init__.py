"""Shared utilities: planar geometry, unit conversion and validation helpers.

These helpers are deliberately dependency-light; every other subpackage of
:mod:`repro` builds on them.
"""
