"""Exception types shared across the package.

The CLI maps these onto exit codes: bad input / violated preconditions
exit 1, genericity failures (a phase on a wall, a tie that decides
nothing, colliding poles) exit 2, internal inconsistencies
(failed exact division, a failed exact identity) exit 3.
"""


class ConfigurationError(ValueError):
    """Unsupported Cartan type or rank."""


class DegenerateOrbitError(ValueError):
    """The requested weight lies on a Weyl wall, so the orbit degenerates."""


class SingularValueError(ValueError):
    """Zero is not a regular value of the shifted moment map."""


class InadmissibleInputError(ValueError):
    """Prequantization condition (integrality / parity) fails."""


class GeneratorDeficiencyError(ValueError):
    """The supplied invariant generators cannot express the character class."""


class GenericityError(RuntimeError):
    """A genericity assumption failed: the residue has no one value here."""


class ExactDivisionError(ArithmeticError):
    """Series or polynomial division left a nonzero remainder."""


class InternalInconsistencyError(ArithmeticError):
    """An identity that must hold exactly failed; indicates an arithmetic bug."""

