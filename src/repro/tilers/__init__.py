"""ArrayOL tiler algebra: specifications, gather/scatter, static analysis.

This package is the shared substrate of both compilation routes in the
paper: the ArrayOL/Gaspard2 route uses tilers as model connectors, while the
SaC route re-expresses the same origin/fitting/paving addressing inside
WITH-loops (paper Section VI).
"""

from repro.tilers.analysis import (
    TilerAccessGeometry,
    access_geometry,
    coverage_counts,
    covers_array,
    duplicate_element_count,
    is_exact,
    is_injective,
    uncovered_element_count,
)
from repro.tilers.ops import flat_element_indices, gather, scatter, scatter_into_zeros
from repro.tilers.paving import coarsen_paving, paving_equivalent
from repro.tilers.regions import tiler_access_box
from repro.tilers.tiler import Tiler
from repro.tilers.viz import render_pattern, render_tiling

__all__ = [
    "Tiler",
    "gather",
    "scatter",
    "scatter_into_zeros",
    "flat_element_indices",
    "access_geometry",
    "TilerAccessGeometry",
    "coverage_counts",
    "is_injective",
    "covers_array",
    "is_exact",
    "duplicate_element_count",
    "uncovered_element_count",
    "tiler_access_box",
    "coarsen_paving",
    "paving_equivalent",
    "render_tiling", "render_pattern",
]
