"""Exact workbench for the circle correspondence algebras A(m, n).

Subpackages cover the monomial calculus (`algebra`), shift and solenoid
representations (`representations`), K-theory (`ktheory`), the rotation
symmetry with fixed-point rewriting (`actions`), piecewise polynomial
functions on the circle (`functions`), the finite projection
construction (`projection`), and growth-rate estimates for the canonical
endomorphism (`entropy`).  The `omnalg` console script exposes all of it.
"""

from .algebra import AlgebraParams, Element, Monomial

__all__ = ["AlgebraParams", "Element", "Monomial"]

__version__ = "0.1.0"
