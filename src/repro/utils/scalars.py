"""Scalar argument checks that need no numpy.

Configuration objects validate their fields with these, so modules such as
:mod:`repro.core.config` (whose defaults the CLI shows in ``--help``) import
without loading numpy.  :mod:`repro.utils.validation` re-exports both.
"""

from __future__ import annotations

import math
import numbers

from repro.exceptions import ValidationError


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it.

    Python and numpy integers are accepted (numpy registers its integer
    types as :class:`numbers.Integral`); ``bool`` is rejected.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return int(value)


def check_in_unit_interval(
    value: float,
    name: str,
    *,
    inclusive_low: bool = True,
    inclusive_high: bool = True,
) -> float:
    """Validate that ``value`` lies in the unit interval and return it."""
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    high_ok = value <= 1.0 if inclusive_high else value < 1.0
    if not (low_ok and high_ok):
        low = "[" if inclusive_low else "("
        high = "]" if inclusive_high else ")"
        raise ValidationError(f"{name} must be in {low}0, 1{high}, got {value}")
    return value
