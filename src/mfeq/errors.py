"""Exception hierarchy shared across the package."""


class MfeqError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MfeqError):
    """Operands come from incompatible state spaces or grids."""


class AdmissibilityError(MfeqError):
    """An action lies outside the admissible set it was used with."""


class ModelDefect(MfeqError):
    """A model violates a structural requirement (e.g. empty admissible set).

    field names the constructor argument at fault, when there is one.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class NumericalError(MfeqError):
    """NaN, negative mass, or similar numerical failure during propagation."""


class ModelFileError(MfeqError):
    """A model file failed schema or consistency validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}" if field else message)
