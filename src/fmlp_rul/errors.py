"""Exception hierarchy shared by all fmlp_rul modules."""


class FmlpRulError(Exception):
    """Base class for all errors raised by this package. ``exit_code`` is the
    CLI's exit status for it: 2 usage or config, 3 data or artifact, 4 numeric."""

    exit_code = 3


class ParseError(FmlpRulError):
    """A text input could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class IntegrityError(FmlpRulError):
    """Parsed data violates a structural invariant (counts, cycle order)."""


class NumericError(FmlpRulError):
    """A numerical routine failed (non-convergence, non-finite values)."""

    exit_code = 4


class DegenerateSensorError(NumericError):
    """A sensor with no variation reached a stage that requires variance."""


class TrainingError(FmlpRulError):
    """Model training diverged or was otherwise aborted."""

    exit_code = 4


class ArtifactError(FmlpRulError):
    """A model artifact could not be read (truncation, schema mismatch)."""


class ConfigError(FmlpRulError):
    """An experiment configuration is malformed or has unknown keys."""

    exit_code = 2
