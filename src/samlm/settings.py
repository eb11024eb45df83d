"""The rule for a valid library setting: every config and call that takes a
count or a real checks it here, so a wrong type or range raises ValueError
whose message starts with the setting's name, never a stray TypeError."""

import math
import numbers


def integer(name: str, value, minimum: int) -> None:
    """Refuse `value` unless it is integral, not a bool, and at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def real(name: str, value, *, or_zero: bool = False) -> None:
    """Refuse `value` unless it is a real number, not a bool, finite, and above
    0, or at 0 too with `or_zero`."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and (0 <= value if or_zero else 0 < value) and value < math.inf):
        raise ValueError(f"{name} must be finite and {'at least 0' if or_zero else 'positive'}, got {value!r}")
