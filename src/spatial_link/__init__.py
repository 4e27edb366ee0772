"""Spatial-Link: significant spatial linkage paths between gridded change fields."""

__version__ = "0.1.0"
