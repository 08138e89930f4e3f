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


def check_number(name: str, value, within, rule: str) -> None:
    """DataError unless `value` is a number (not a bool) for which
    `within(value)` holds; `rule` says which numbers those are."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not within(value):
        raise DataError(f"hyper-parameter {name} must be {rule}, got {value!r}")


def check_positive(name: str, value) -> None:
    """DataError unless `value` is a finite number (not a bool) above 0."""
    check_number(name, value, lambda v: 0 < v < math.inf, "a finite number > 0")


def check_training_hp(hp) -> None:
    """The rules every network's hyper-parameters share: `latent`, `layers`,
    `batch_size` and whichever of the caps `seq_cap`, `code_cap` and
    `comment_cap` it has are ints >= 1, `epochs` an int >= 0,
    `learning_rate` a finite number > 0, `dropout` a number in [0, 1) and
    a detector's `threshold` a number in [0, 1].

    The training entry points call it; loading a checkpoint does not, so
    a header whose `epochs` no longer passes still loads for inference."""
    for name in ("latent", "layers", "batch_size", "seq_cap", "code_cap", "comment_cap"):
        if hasattr(hp, name):
            check_count(name, getattr(hp, name), 1)
    check_count("epochs", hp.epochs, 0)
    check_positive("learning_rate", hp.learning_rate)
    check_number("dropout", hp.dropout, lambda v: 0 <= v < 1, "a number in [0, 1)")
    if hasattr(hp, "threshold"):
        check_number("threshold", hp.threshold, lambda v: 0 <= v <= 1, "a number in [0, 1]")
