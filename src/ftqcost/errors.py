"""Exception types shared across the estimator."""


class EstimatorError(Exception):
    """Base class for estimator failures."""


class InvalidDistanceError(EstimatorError, ValueError):
    """Code distance is not an odd integer >= 3."""


class BudgetInfeasibleError(EstimatorError):
    """No code distance up to the cap satisfies the QEC failure budget."""


class MagicStarvedError(EstimatorError):
    """A circuit consumes magic states but the factory fleet produces none."""


class UndefinedRatioError(EstimatorError):
    """PBC comparison ratio requested for a circuit with no non-Clifford gates."""


class CompileError(EstimatorError, ValueError):
    """An input too extreme for the float range: a scheme's load, synthesis
    budget or an estimate's totals left it.

    The message opens with the input attribute the failure is laid to.
    """


class ConfigError(EstimatorError):
    """Configuration failed validation.

    Carries one diagnostic per offending field, each prefixed with the
    dotted field path (e.g. ``physical.p``).
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
