"""Error taxonomy shared by the library and the CLI, and the input rules.

Two families matter for exit codes: invalid input data (documents that do
not parse, graphs violating their invariants, coefficient recipes that do
not compile for the target graph) and unsatisfied mathematical
preconditions on otherwise valid data (non-general profile where a general
one is required, a clutching recipe without matching marking coefficients,
a non-simple sheaf, a degree mismatch).

Every builder and entry point reads caller values through one rule each:
``require_int`` for integers, ``parse_int`` for integers written as text,
``require_name`` for vertex ids and marking labels, ``parse_rational`` for
exact rationals and ``require_keys`` for maps keyed by a fixed set of ids
(``require_int_map`` when the values are integers).  A value they refuse is
a ``ValidationError``; nothing is truncated, dropped or read as the text of
another type.
"""

from fractions import Fraction


class JacstabError(Exception):
    """Base class for all errors raised by jacstab."""


class ValidationError(JacstabError):
    """Invalid input data.  CLI exit code 2."""


class PreconditionError(JacstabError):
    """Valid data, unsatisfied operation precondition.  CLI exit code 3."""


def clip(value, show=repr, cut=60) -> str:
    """``show(value)``, or its first ``cut`` characters and its length when it is longer."""
    try:
        text = show(value)
    except ValueError:  # an int, or a fraction's terms, of more digits than str writes
        terms = [value.numerator] + [value.denominator] * (value.denominator != 1)
        text = "/".join(_lead_digits(term, cut) for term in terms)
    return text if len(text) <= cut else f"{text[:cut]}... ({len(text)} characters)"


def _lead_digits(value: int, cut: int) -> str:
    """``str(value)`` with every digit after the first ``cut`` written as 0, for any size."""
    size = abs(value)
    n = (k := size.bit_length() * 30103 // 100000) + (size >= 10 ** k)  # digits
    return ("-" * (value < 0) + str(size // 10 ** max(n - cut, 0))).ljust(n + (value < 0), "0")


def require_int(value, what: str) -> int:
    """``value`` if it is an int (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {clip(value)}")
    return value


def parse_int(text, refuse=True) -> int | None:
    """The integer that ``text`` writes in ASCII digits with an optional sign (the CLI's integer
    flags, JACSTAB_THREADS, each side of a rational; with ``refuse=False`` the label order, which
    gets None for other text), where int() would also read "1_0", " 1" and non-ASCII digits."""
    if isinstance(text, str):
        digits = text[1:] if text[:1] in ("+", "-") else text
        if digits.isascii() and digits.isdigit():
            try:
                return int(text)
            except ValueError:  # more digits than int() reads
                pass
    if refuse:
        raise ValidationError(
            f"malformed integer {clip(text)}: use ASCII digits with an optional sign")


def require_name(value, what: str) -> str:
    """``value`` as a str if it is a str or an int (a bool is not)."""
    if isinstance(value, str) or isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise ValidationError(f"{what} must be a string or an integer, got {clip(value)}")


def parse_rational(value) -> Fraction:
    """An exact rational from a Fraction, an int or a "p/q" string; never a float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"expected a rational string, got {clip(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValidationError("floating point is not accepted; use p/q strings")
    if not isinstance(value, str):
        raise ValidationError(f"expected a rational string, got {clip(value)}")
    num, slash, den = value.strip().partition("/")
    try:
        p, q = parse_int(num), parse_int(den) if slash else 1
    except ValidationError as exc:
        raise ValidationError(f"malformed rational {clip(value)}") from exc
    if q == 0:
        raise ValidationError(f"zero denominator in {clip(value)}")
    return Fraction(p, q) if slash else Fraction(p)  # an int skips the gcd


def require_keys(keys, values: dict, what: str, default=None) -> list:
    """The values of ``values`` at ``keys``, in their order, when its keys are exactly ``keys``
    (a missing one takes a ``default``); a refusal names them by ``clip_keys``."""
    if not isinstance(values, dict):
        raise ValidationError(f"{what} must be a map, got {clip(values)}")
    missing = [] if default is not None else [k for k in keys if k not in values]
    unknown = [k for known in [set(keys)] for k in values if k not in known]  # linear in both
    if missing or unknown:
        raise ValidationError(f"{what} mismatch: missing {clip_keys(sorted(missing))}, "
                              f"unknown {clip_keys(sorted(unknown, key=str))}")
    return [values.get(k, default) for k in keys]


def clip_keys(keys: list) -> str:
    """The first 10 ``keys`` as a list by ``clip``, after their count when there are more: a
    str or int key cut at 60 characters, another at 120, and the list at 900, which 10 fit."""
    return ("" if len(keys) <= 10 else f"{len(keys)} keys, first 10 ") + clip("[" + ", ".join(
        clip(k, repr, 60 if isinstance(k, (str, int)) else 120) for k in keys[:10]) + "]",
        str, 900)


def require_int_map(keys, values: dict, what: str, default=None) -> list[int]:
    """``require_keys`` with every value an integer."""
    return [require_int(c, f"{what} at {k}")
            for k, c in zip(keys, require_keys(keys, values, what, default))]
