"""Exception types shared across the package.

A class exists for each distinction a caller makes: what the command line
maps to an exit code, and what carries a witness a caller reads.  Everything
else is told apart by its message.  Every validation error carries the
witnessing data as attributes so that callers (and test suites) can inspect
exactly what failed, not just that something did.

The command line exits 2 on bad input: ``GroupValidationError`` (with
``NotAssociative``), ``NotAutomorphism``, ``NotHomomorphic``,
``DomainMismatch``, ``BoundExceeded`` and ``InvalidInstance``.  Any other
``SdmatError`` is a claim of the theory failing on valid input and exits 1.
"""

from __future__ import annotations


class SdmatError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# Cayley table validation


class GroupValidationError(SdmatError):
    """A multiplication table fails one of the group axioms."""


class NotAssociative(GroupValidationError):
    def __init__(self, a: int, b: int, c: int) -> None:
        self.triple = (a, b, c)
        super().__init__(f"associativity fails at ({a}, {b}, {c}): (a*b)*c != a*(b*c)")


# ---------------------------------------------------------------------------
# Action validation


class NotAutomorphism(SdmatError):
    """A row of an action table is not a bijective endomorphism."""

    def __init__(self, k: int, reason: str = "") -> None:
        self.k = k
        msg = f"action of element {k} is not an automorphism"
        super().__init__(msg + (f": {reason}" if reason else ""))


class NotHomomorphic(SdmatError):
    """The action table does not respect the group law of the acting group."""

    def __init__(self, k1: int, k2: int) -> None:
        self.pair = (k1, k2)
        super().__init__(f"action rows violate f(k1*k2) = f(k1) o f(k2) at ({k1}, {k2})")


# ---------------------------------------------------------------------------
# Maps and matrices


class DomainMismatch(SdmatError):
    """Operands live on incompatible groups: maps, matrix entries or products."""


class NotBijective(SdmatError):
    """A map that must be invertible as a set map is not."""


class ConditionsViolated(SdmatError):
    """A matrix fails the defining compatibility conditions."""

    def __init__(self, name: str, witness: tuple) -> None:
        self.name = name
        self.witness = witness
        super().__init__(f"condition {name} fails at {witness}")


# ---------------------------------------------------------------------------
# Determinants, inversion and factorization


class PreconditionFailed(SdmatError):
    """A precondition fails, mostly a map that must be bijective: alpha, delta, a determinant or theta."""


class VerificationFailed(SdmatError):
    """A computed identity that the theory guarantees failed to hold.

    Raising this means either a genuine counterexample or an implementation
    bug; the witness is attached either way.
    """

    def __init__(self, what: str, witness: tuple | dict | None = None) -> None:
        self.what = what
        self.witness = witness
        super().__init__(f"verification failed: {what}" + (f" at {witness}" if witness else ""))


# ---------------------------------------------------------------------------
# Enumeration guards and catalog


class BoundExceeded(SdmatError):
    """An enumeration was requested beyond its configured size guard."""


class InvalidInstance(SdmatError):
    """A catalog instance name could not be parsed or built."""
