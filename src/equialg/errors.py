"""Exception types, the check report and the integer check of the JSON
readers, shared across the package."""


class ValidationError(ValueError):
    """Malformed or axiom-violating input data."""


class CutoffOverflowError(ValueError):
    """A computation needs objects larger than the active size cutoff.
    Carries a witness where the caller has one."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GuardExceededError(RuntimeError):
    """A resource guard (point count, search-space size) was breached."""


class TheoremViolation(AssertionError):
    """Falsifying evidence: a verified precondition held but a proved
    consequence failed.  Carries the witness; never silently repaired."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CheckReport:
    """Outcome of a validity check; falsy iff some axiom failed."""

    def __init__(self, ok: bool, axiom: str = "", witness=None):
        self.ok = bool(ok)
        self.axiom = axiom
        self.witness = witness

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "CheckReport(ok)"
        return f"CheckReport(fail: {self.axiom}, witness={self.witness})"


def require_ints(value, what: str):
    """Raise ValidationError unless `value` is an int or a nested list or
    tuple of ints.  A bool or a float (even 1.0) is rejected, never
    truncated."""
    if isinstance(value, (list, tuple)):
        for x in value:
            if type(x) is not int:
                require_ints(x, what)
    elif type(value) is not int:
        raise ValidationError(f"{what} must hold integers, not {value!r}")
