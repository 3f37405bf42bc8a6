"""Generalized B-spline collocation matrices and their spectral symbols.

The package constructs polynomial, hyperbolic and trigonometric GB-spline
bases, assembles the matrices of isogeometric collocation for second-order
elliptic problems (in one and several dimensions, with geometry maps), builds
the associated spectral symbols, and provides the machinery to verify
eigenvalue-distribution, clustering, bound and decay statements numerically.
"""

from .cardinal import CardinalSpline, cardinal_spline, cardinal_splines
from .collocation import (CollocationSystem, GBBasis, Geometry, KnotVector,
                          Problem, assemble, central_range, collocation_matrix,
                          gb_basis, greville_abscissae)
from .errors import (ConstraintError, ExprError, GbspecError, NumericalError,
                     UsageError, ValidationError)
from .multidim import (DirectionSymbols, assemble_md, direction_bases,
                       md_symbol_samples, problem_sampler)
from .sections import (PiecewiseFn, SectionFamily, hyperbolic, piecewise_eval,
                       polynomial, trigonometric)
from .spectral import (DistributionReport, SymbolDraw, ToeplitzSpec,
                       eigenvalues_dense, product_symbol_sampler,
                       symbol_moments, symbol_sampler, toeplitz,
                       toeplitz_eigenvalues, weyl_report)
from .symbols import (BoundReport, SymbolFn, bounds_report, decay_ratio,
                      decay_ratios, symbol_fn, symbol_fns, symbol_max,
                      symbol_series)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CardinalSpline", "CollocationSystem", "ConstraintError",
    "DirectionSymbols", "DistributionReport", "ExprError", "GBBasis",
    "GbspecError", "Geometry", "KnotVector", "NumericalError", "PiecewiseFn",
    "Problem", "SectionFamily", "SymbolDraw", "SymbolFn", "ToeplitzSpec",
    "UsageError", "ValidationError", "assemble", "assemble_md", "bounds_report",
    "cardinal_spline", "cardinal_splines", "central_range",
    "collocation_matrix", "decay_ratio", "decay_ratios", "direction_bases",
    "eigenvalues_dense", "gb_basis", "greville_abscissae", "hyperbolic",
    "md_symbol_samples", "piecewise_eval", "polynomial", "problem_sampler",
    "product_symbol_sampler", "symbol_fn", "symbol_fns", "symbol_max",
    "symbol_moments", "symbol_sampler", "symbol_series",
    "toeplitz", "toeplitz_eigenvalues", "trigonometric", "weyl_report",
]
