"""Monge-array abstractions and sequential searching algorithms.

This package is the sequential foundation the parallel algorithms build
on and are tested against:

- :mod:`repro.monge.arrays` — explicit / implicit (callable) array
  wrappers, staircase wrappers carrying the `∞`-boundary vector, and
  Monge-composite pairs;
- :mod:`repro.monge.properties` — exact property verifiers (Monge,
  inverse-Monge, staircase-Monge, total monotonicity);
- :mod:`repro.monge.generators` — reproducible random instances of all
  array classes plus the paper's geometric instances;
- :mod:`repro.monge.smawk` — the `O(m+n)` SMAWK searcher of [AKM+87];
- :mod:`repro.monge.staircase_seq` — sequential staircase-Monge row
  minima baselines;
- :mod:`repro.monge.composite` — (min,+)/(max,+) products of Monge
  arrays ("tube" searching, sequential form);
- :mod:`repro.monge.index` — the precompute-once envelope segment tree
  answering submatrix (rectangle) maximum queries.
"""

from repro.monge.arrays import (
    ExplicitArray,
    ImplicitArray,
    MongeComposite,
    SearchArray,
    StaircaseArray,
    as_search_array,
)
from repro.monge.properties import (
    is_inverse_monge,
    is_monge,
    is_staircase_inverse_monge,
    is_staircase_monge,
    is_totally_monotone_minima,
    staircase_boundary,
)
from repro.monge.smawk import row_maxima, row_minima, smawk
from repro.monge.recognition import (
    monge_decomposition,
    monge_margin,
    normalize_potentials,
    reconstruct,
)
from repro.monge.composite import (
    product_argmax,
    product_argmin,
    tube_maxima_sequential,
    tube_minima_sequential,
)
from repro.monge.index import MongeIndex

__all__ = [
    "ExplicitArray",
    "ImplicitArray",
    "StaircaseArray",
    "MongeComposite",
    "SearchArray",
    "as_search_array",
    "is_monge",
    "is_inverse_monge",
    "is_staircase_monge",
    "is_staircase_inverse_monge",
    "is_totally_monotone_minima",
    "staircase_boundary",
    "smawk",
    "row_minima",
    "row_maxima",
    "monge_decomposition",
    "monge_margin",
    "normalize_potentials",
    "reconstruct",
    "MongeIndex",
    "product_argmin",
    "product_argmax",
    "tube_minima_sequential",
    "tube_maxima_sequential",
]
