"""Shared utilities: Morton key algebra, geometry, array helpers, timers."""

from repro.util import morton
from repro.util.geometry import box_center, box_half_width
from repro.util.timer import PhaseProfile

__all__ = ["morton", "box_center", "box_half_width", "PhaseProfile"]
