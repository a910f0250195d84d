"""Exact invariants of torus-bundle singularity links.

The package computes, in exact integer and rational arithmetic:

* SL(2,Z) monodromy classification and the cycle-word normal form,
* circular and genus-one plumbing graphs with their boundary homology,
* horizontal genus-one open books and the homology of their total spaces,
* enumerations of Legendrian handle diagrams of Stein fillings,
* the adjunction-realizing (canonical) diagrams, Euler classes and d3.
"""

__version__ = "0.1.0"
