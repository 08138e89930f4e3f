"""Exception types shared across the package, the hyper-parameter
dataclasses' base, and the hyper-parameter checks that raise them.

The CLI maps these onto exit codes: DataError -> 2, TrainingError -> 3.
"""

import math
from dataclasses import asdict


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


class HyperParameters:
    """Base of the hyper-parameter dataclasses: to and from a dict, ignoring unknown keys."""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict):
        return cls(**{k: v for k, v in obj.items() if k in cls.__dataclass_fields__})


def check_count(name: str, value, minimum: int, what: str = "hyper-parameter") -> None:
    """DataError unless `value` is an int (not a bool) of at least `minimum`.
    The message calls the value `what` `name`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise DataError(f"{what} {name} must be an integer >= {minimum}, got {value!r}")


def check_number(name: str, value, within, rule: str, what: str = "hyper-parameter") -> None:
    """DataError unless `value` is a number (not a bool) for which
    `within(value)` holds; `rule` says which numbers those are."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not within(value):
        raise DataError(f"{what} {name} must be {rule}, got {value!r}")


def check_choice(name: str, value, choices: tuple, what: str = "hyper-parameter") -> None:
    """DataError unless `value` is one of `choices`."""
    if value not in choices:
        raise DataError(f"{what} {name} must be one of {', '.join(map(repr, choices))}, got {value!r}")


def check_positive(name: str, value) -> None:
    """DataError unless `value` is a finite number (not a bool) above 0."""
    check_number(name, value, lambda v: 0 < v < math.inf, "a finite number > 0")


# The largest size a network or batch setting may take. An array is at most two
# sizes wide times a small factor, so its bytes stay far below the 2**63 numpy can
# index: a network too large for memory ends in MemoryError, not in a ValueError.
MAX_SIZE = 2**24


def check_sizes(hp, what: str = "hyper-parameter") -> None:
    """`latent`, `layers`, `batch_size` and whichever of the caps `seq_cap`,
    `code_cap` and `comment_cap` hp has are ints in [1, MAX_SIZE]: the
    settings that shape a network and its batches, in training and in
    inference."""
    for name in ("latent", "layers", "batch_size", "seq_cap", "code_cap", "comment_cap"):
        if hasattr(hp, name):
            value = getattr(hp, name)
            check_count(name, value, 1, what)
            if value > MAX_SIZE:
                raise DataError(f"{what} {name} must be at most {MAX_SIZE}, got {value!r}")


def check_training_hp(hp) -> None:
    """The rules every network's hyper-parameters share: `check_sizes`,
    `epochs` an int >= 0, `learning_rate` a finite number > 0, `dropout` a
    number in [0, 1) and a detector's `threshold` a number in [0, 1].

    The training entry points call it. Loading a checkpoint checks only
    what inference reads (`check_sizes`), so a header whose `epochs` no
    longer passes still loads for inference."""
    check_sizes(hp)
    check_count("epochs", hp.epochs, 0)
    check_positive("learning_rate", hp.learning_rate)
    check_number("dropout", hp.dropout, lambda v: 0 <= v < 1, "a number in [0, 1)")
    if hasattr(hp, "threshold"):
        check_number("threshold", hp.threshold, lambda v: 0 <= v <= 1, "a number in [0, 1]")
