"""Exception hierarchy shared by all modules."""


class Cy3Error(Exception):
    """Base class for all library errors."""


class IncompatibleFields(Cy3Error):
    """Two surds live in distinct real quadratic fields."""


class RadicandTooLarge(Cy3Error):
    """A squarefree split needs trial division past TRIAL_DIVISION_LIMIT."""


class ComplexRoots(Cy3Error):
    """t^2 - s*t + 1 has no real roots (|s| < 2)."""


class ZeroVector(Cy3Error):
    pass


class NotUnimodular(Cy3Error):
    pass


class DoesNotPreserveL(Cy3Error):
    pass


class PostCheckFailed(Cy3Error):
    """Internal post-check failure: a computed result does not satisfy the
    identity that defines it. `check` names the identity."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        self.detail = detail
        super().__init__(check if not detail else f"{check}: {detail}")


class GeometricInconsistency(Cy3Error):
    """Input lattice data violates a consequence of Calabi-Yau geometry.

    `mechanism` names the classical theorem whose conclusion fails for the
    input: the Hodge index theorem, the Lefschetz hyperplane theorem, or
    the full-Jordan-block requirement on unipotent actions.
    """

    def __init__(self, mechanism: str, detail: str = ""):
        self.mechanism = mechanism
        self.detail = detail
        # the reductions `analyze_group` made before the inconsistency was found
        self.reductions: tuple[str, ...] = ()
        msg = mechanism if not detail else f"{mechanism}: {detail}"
        super().__init__(msg)


class RelationsNotVerified(Cy3Error):
    pass


class NotUnipotentInFrame(Cy3Error):
    pass


class ConstraintViolated(Cy3Error):
    pass


class NonIntegral(Cy3Error):
    pass


class LinesNotPreserved(Cy3Error):
    pass


class BoundTooLarge(Cy3Error):
    pass


class NonPreservingGenerator(Cy3Error):
    pass


class ParseError(Cy3Error):
    pass


class ValidationError(Cy3Error):
    pass
