"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class WordParseError(ValueError):
    """A word string contains characters outside the two-letter alphabet."""


class ResourceCapError(RuntimeError):
    """A request exceeds a cap: a table's entry cap, or the digits of a printed int."""


class FormExpansionError(RuntimeError):
    """The character expansion lost its single-monomial normal form.

    Single-monomial survival is a theorem for these characters, so this
    signals an implementation bug, never a data condition.
    """
