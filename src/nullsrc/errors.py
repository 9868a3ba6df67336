"""Exception types shared across the package."""


class NullsrcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(NullsrcError):
    """Domain or experiment specification violates a precondition."""


class ConfigError(InvalidSpec):
    """A configuration file or override could not be parsed or validated."""


class NonPositiveCoefficient(InvalidSpec):
    """Diffusion coefficient is not uniformly positive."""


class SingularState(NullsrcError):
    """State matrix is numerically singular (pure Neumann or resonance)."""


class IncompatibleGrids(InvalidSpec):
    """A mesh triangle straddles a control-cell boundary."""


class LengthMismatch(NullsrcError):
    """Coefficient vector length does not match the basis dimension."""


class DegenerateBasis(NullsrcError):
    """A basis function is numerically inside the forward nullspace.

    The weight operator is not invertible in that case; `index` is the
    first offending basis index and `p_norm` its projection norm.
    """

    def __init__(self, index: int, p_norm: float):
        self.index = index
        self.p_norm = p_norm
        super().__init__(
            f"basis function {index} has projection norm {p_norm:.3e} "
            f"below the invertibility threshold"
        )


class IllConditioned(NullsrcError):
    """A solve gave no usable coefficients.

    An SVD or the discrepancy search failed to converge, the coefficients
    came out non-finite (for example from NaN data), or the residual or
    error norm of finite coefficients overflowed.
    """


class GammaTooSmall(NullsrcError):
    """Discrepancy target lies below the minimal attainable residual."""


class GammaTooLarge(NullsrcError):
    """Discrepancy target cannot be bracketed from above."""
