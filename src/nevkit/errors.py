"""Exception types shared across the package, and its one JSON reader."""
from __future__ import annotations

import json


class NevkitError(Exception):
    """Base class for all package-specific errors."""


class CoincidentOppositeAtoms(NevkitError, ValueError):
    """Atoms of both signs share a location; the model must be pre-reduced."""


class AtomOnCircle(NevkitError, ValueError):
    """An atom sits on a circle along which a mean or supremum is requested."""

    def __init__(self, radius: float, message: str | None = None):
        self.radius = float(radius)
        super().__init__(message or f"atom on circle of radius {radius!r}")


class PoleOnCircle(NevkitError, ValueError):
    """A pole sits on the evaluation circle of a classical characteristic."""


class SharedZeroPole(NevkitError, ValueError):
    """A zero and a pole of a rational function share a location."""


class NegativeMassInView(NevkitError, ValueError):
    """A charge view fed to a counting operation carries negative mass."""


class ToleranceNotReached(NevkitError, ArithmeticError):
    """Adaptive refinement exhausted its budget before meeting the tolerance."""


class ParseError(NevkitError, ValueError):
    """Malformed serialized input (model, integrator, or run config)."""


def json_object(text: str, what: str) -> dict:
    """Parse text as one JSON object; `what` names the document in errors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: invalid JSON at line {exc.lineno} "
                         f"col {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what}: must be a JSON object")
    return doc
