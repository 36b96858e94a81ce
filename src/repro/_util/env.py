"""Typed environment-variable parsing for the ``REPRO_*`` switches.

These helpers own one motif — read the variable, strip it, parse it,
and raise a ``ValueError`` naming the variable and its accepted values
on malformed input:

- unset or empty/whitespace-only values mean "no setting" and return
  ``None`` — defaults are the *caller's* business;
- malformed values raise ``ValueError`` messages of the fixed shape
  ``"<NAME> must be <requirement>; got <value!r>"``, so a deployment
  typo (``REPRO_KERNEL_TIER=fsued``) fails loudly at resolve time
  instead of silently running with a default.

Nothing here caches: callers that want resolve-once semantics (the
environment defaults in :mod:`repro.kernels.registry`) memoize the
parsed value themselves.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

__all__ = ["env_raw", "env_choice"]


def env_raw(name: str) -> Optional[str]:
    """The stripped value of ``name``, or ``None`` when unset/blank."""
    raw = os.environ.get(name, "").strip()
    return raw or None


def _reject(name: str, requirement: str, got) -> ValueError:
    return ValueError(f"{name} must be {requirement}; got {got!r}")


def env_choice(name: str, choices: Sequence[str]) -> Optional[str]:
    """Parse ``name`` case-insensitively against a closed set of
    accepted values.

    Returns ``None`` when unset; unknown values raise ``ValueError``.
    """
    raw = env_raw(name)
    if raw is None:
        return None
    raw = raw.lower()
    if raw in choices:
        return raw
    raise _reject(name, f"one of {tuple(choices)}", raw)
