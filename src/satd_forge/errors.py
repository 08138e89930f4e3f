"""Exception types shared across the package, and the hyper-parameter
checks that raise them.

The CLI maps these onto exit codes: DataError -> 2, TrainingError -> 3.
"""

import math


class SatdForgeError(Exception):
    pass


class DataError(SatdForgeError):
    pass


class JavaLexError(DataError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class CheckpointError(DataError):
    pass


class TrainingError(SatdForgeError):
    pass


def check_count(name: str, value, minimum: int) -> None:
    """DataError unless `value` is an int (not a bool) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise DataError(f"hyper-parameter {name} must be an integer >= {minimum}, got {value!r}")


def check_positive(name: str, value) -> None:
    """DataError unless `value` is a finite number (not a bool) above 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        raise DataError(f"hyper-parameter {name} must be a finite number > 0, got {value!r}")


def check_training_hp(hp) -> None:
    """The rules every network's hyper-parameters share: `latent`, `layers`
    and `batch_size` are ints >= 1, `epochs` an int >= 0, and
    `learning_rate` a finite number > 0.

    The training entry points call it; loading a checkpoint does not, so
    a header whose `epochs` no longer passes still loads for inference."""
    for name in ("latent", "layers", "batch_size"):
        check_count(name, getattr(hp, name), 1)
    check_count("epochs", hp.epochs, 0)
    check_positive("learning_rate", hp.learning_rate)
