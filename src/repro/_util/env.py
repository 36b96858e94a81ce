"""Typed environment-variable parsing shared by every ``REPRO_*`` switch.

These helpers own one motif — read the variable, strip it, parse it,
and raise a ``ValueError`` naming the variable and its accepted range
on malformed input:

- unset or empty/whitespace-only values mean "no setting" and return
  ``None`` — defaults are the *caller's* business;
- malformed values raise ``ValueError`` messages of the fixed shape
  ``"<NAME> must be <requirement>; got <value!r>"``, so a deployment
  typo (``REPRO_TILE_BYTES=lots``) fails loudly at resolve time instead
  of silently running with a default.

Nothing here caches: callers that want resolve-once semantics (the
environment defaults in :mod:`repro.kernels.registry`) memoize the
parsed value themselves.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

__all__ = ["env_raw", "env_int", "env_choice"]


def env_raw(name: str) -> Optional[str]:
    """The stripped value of ``name``, or ``None`` when unset/blank."""
    raw = os.environ.get(name, "").strip()
    return raw or None


def _reject(name: str, requirement: str, got) -> ValueError:
    return ValueError(f"{name} must be {requirement}; got {got!r}")


def env_int(
    name: str,
    *,
    requirement: str,
    minimum: Optional[int] = None,
    exclusive_minimum: Optional[int] = None,
) -> Optional[int]:
    """Parse ``name`` as an integer, or ``None`` when unset.

    ``requirement`` is the human-readable clause of the error message
    (e.g. ``"a positive integer byte budget"``).  ``minimum`` /
    ``exclusive_minimum`` bound the accepted range; out-of-range values
    raise the same ``ValueError`` shape as unparseable ones.
    """
    raw = env_raw(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise _reject(name, requirement, raw) from None
    if minimum is not None and value < minimum:
        raise _reject(name, requirement, value)
    if exclusive_minimum is not None and value <= exclusive_minimum:
        raise _reject(name, requirement, value)
    return value


def env_choice(
    name: str,
    choices: Sequence[str],
    *,
    lower: bool = True,
) -> Optional[str]:
    """Parse ``name`` against a closed set of accepted values.

    Returns ``None`` when unset; unknown values raise ``ValueError``.
    """
    raw = env_raw(name)
    if raw is None:
        return None
    if lower:
        raw = raw.lower()
    if raw in choices:
        return raw
    raise _reject(name, f"one of {tuple(choices)}", raw)
