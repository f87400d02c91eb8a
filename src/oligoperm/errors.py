"""Error types shared across the package.

Every exception carries a stable ``code`` string so CLI reports and tests can
match on it without parsing messages.
"""


class OligopermError(Exception):
    code = "ERROR"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class FieldMismatch(OligopermError):
    code = "FIELD_MISMATCH"


class DivisionByZero(OligopermError, ZeroDivisionError):
    code = "DIVISION_BY_ZERO"


class PoleAtPoint(OligopermError):
    code = "POLE_AT_POINT"


class UnknownAtom(OligopermError):
    code = "UNKNOWN_ATOM"


class ShapeMismatch(OligopermError):
    code = "SHAPE_MISMATCH"


class NotSurjective(OligopermError):
    code = "NOT_SURJECTIVE"


class InconsistentSystem(OligopermError):
    code = "INCONSISTENT"


class UsageError(OligopermError):
    code = "USAGE"
