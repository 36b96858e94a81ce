"""Self-certification of search results.

:mod:`repro.resilience.certify` holds ``O(m + n)`` certificates for the
row-minima, staircase row-minima and tube-minima problems.  The engine
runs them under ``certify=True``, and a failing certificate raises
:class:`~repro.resilience.certify.CertificationError`.  See DESIGN.md
§"Certification".
"""

from repro.resilience.certify import (
    Certificate,
    CertificationError,
    certify_row_minima,
    certify_staircase_row_minima,
    certify_tube_minima,
)

__all__ = [
    "Certificate",
    "CertificationError",
    "certify_row_minima",
    "certify_staircase_row_minima",
    "certify_tube_minima",
]
