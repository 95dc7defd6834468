"""Exact-arithmetic singularity thresholds.

Log canonical thresholds for closed-form families, F-pure thresholds and
nu-sequences in characteristic p, test ideals via Frobenius roots, F-jumping
scans, asymptotic thresholds of graded monomial sequences, and a
reduction-mod-p comparison harness.  All values are exact rationals
(``fractions.Fraction``); no floating point enters any computation.

Importing the package loads no submodule: each name of ``__all__`` imports
its owning submodule on first access (PEP 562).
"""

import importlib

_OWNERS = {
    "Ring": "rings",
    "Polynomial": "rings",
    "parse_polynomial": "rings",
    "render_polynomial": "rings",
    "MonomialIdeal": "newton",
    "lct_monomial": "newton",
    "ThresholdResult": "lct0",
}

__all__ = list(_OWNERS)

__version__ = "0.1.0"


def __getattr__(name):
    owner = _OWNERS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{owner}"), name)
