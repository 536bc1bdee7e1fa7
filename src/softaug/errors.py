"""Error taxonomy shared by every module.

The CLI maps these onto exit codes: ConfigError -> 2, DataError (and
subclasses) -> 3, DivergenceError -> 4. Everything else is a plain 1.
"""
from __future__ import annotations


class SoftaugError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(SoftaugError):
    """Operands have incompatible dimensions."""


class ContractError(SoftaugError):
    """A precondition of an operation was violated."""


class ConfigError(SoftaugError):
    """Bad experiment configuration (unknown key, out-of-range value...)."""


class DataError(SoftaugError):
    """Base class for dataset loading/validation problems."""


class SchemaError(DataError):
    """CSV header or column layout does not match expectations."""


class ParseError(DataError):
    """A cell could not be parsed; message carries row/column coordinates."""


class BudgetError(DataError):
    """A split or labeling budget does not fit the dataset."""


class CatalogError(DataError):
    """Unknown synthetic dataset name."""


class DegeneracyError(DataError):
    """Clustering asked for more clusters than there are distinct points."""


class ConditioningError(SoftaugError):
    """A linear solve failed; usually fixed by a positive ridge."""


class DivergenceError(SoftaugError):
    """Training produced a non-finite value; carries iteration context."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
