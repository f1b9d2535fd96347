"""Resource caps guarding combinatorial blow-ups.

Every cap can be overridden through an environment variable so that large
instances can be pushed through deliberately:

- ``EXACTMDP_ENUMERATION_CAP``     decision rules materialized per MDP
- ``EXACTMDP_SYMBOLIC_HORIZON_CAP`` horizons of piecewise-symbolic value iteration
- ``EXACTMDP_PREFIX_CAP``          policy prefixes enumerated per condition check
- ``EXACTMDP_PIECE_CAP``           pieces per symbolic horizon

A setting that is not a positive integer raises ``CapSettingError``.  Cap
settings, document rationals and discounts all read their integers with
``parse_int``.
"""

from __future__ import annotations

import os
import re

DEFAULT_ENUMERATION_CAP = 4096
DEFAULT_SYMBOLIC_HORIZON_CAP = 64
DEFAULT_PREFIX_CAP = 1_000_000
DEFAULT_PIECE_CAP = 10_000


class CapExceededError(RuntimeError):
    """A configured resource cap would be exceeded."""

    def __init__(self, cap_name: str, needed, cap):
        super().__init__(f"{cap_name} cap exceeded: need {needed}, cap is {cap}")
        self.cap_name = cap_name
        self.needed = needed
        self.cap = cap


class CapSettingError(ValueError):
    """A cap environment variable is not a positive integer."""


_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str) -> int:
    """The integer an ASCII string [+-]?[0-9]+ spells.  Unlike int(), this
    refuses underscores, whitespace and non-ASCII digits, with int()'s own
    ValueError message."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _from_env(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    message = f"{name}={raw!r} is not a positive integer"
    try:
        value = parse_int(raw.strip())
    except ValueError:
        raise CapSettingError(message) from None
    if value < 1:
        raise CapSettingError(message)
    return value


def enumeration_cap() -> int:
    return _from_env("EXACTMDP_ENUMERATION_CAP", DEFAULT_ENUMERATION_CAP)


def symbolic_horizon_cap() -> int:
    return _from_env("EXACTMDP_SYMBOLIC_HORIZON_CAP", DEFAULT_SYMBOLIC_HORIZON_CAP)


def prefix_cap() -> int:
    return _from_env("EXACTMDP_PREFIX_CAP", DEFAULT_PREFIX_CAP)


def piece_cap() -> int:
    return _from_env("EXACTMDP_PIECE_CAP", DEFAULT_PIECE_CAP)
