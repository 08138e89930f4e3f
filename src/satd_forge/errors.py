"""Exception types shared across the package, the hyper-parameter
dataclasses' base, and the hyper-parameter checks that raise them.

The CLI maps these onto exit codes: DataError -> 2, TrainingError -> 3.
"""

import math
from dataclasses import asdict
from typing import ClassVar


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
    """Base of the frozen setting types, one per trainer. A subclass declares
    its keys as fields with their defaults, the sizes among them in SIZES,
    its rules in `check`, and, for a detector, the `model` value its dicts
    may name. `parse` reads a `--hp` dict strictly; `from_dict` reads the
    setting a checkpoint header records, the program's own format, keeping
    the fields it knows and checking nothing."""

    model: ClassVar[str | None] = None
    described: ClassVar[str | None] = None  # the kind, as messages name it, where no model does
    SIZES: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict):
        return cls(**{k: v for k, v in obj.items() if k in cls.__dataclass_fields__})

    @classmethod
    def keys(cls) -> list[str]:
        return ["model"] * (cls.model is not None) + list(cls.__dataclass_fields__)

    @classmethod
    def parse(cls, obj: dict):
        keys = cls.keys()
        outside = [key for key in obj if key not in keys]
        if outside:
            kind = cls.described or f"model {cls.model!r}"
            raise DataError(f"hyper-parameter{'s' * (len(outside) > 1)} {', '.join(outside)} must be left out "
                            f"for {kind}, which takes {', '.join(keys)}")
        if obj.get("model", cls.model) != cls.model:
            raise DataError(f"hyper-parameter model must be {cls.model!r}, got {obj['model']!r}")
        setting = cls.from_dict(obj)
        setting.check()  # DataError for the first value training would reject
        return setting


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
    """The sizes hp's type lists in SIZES (`latent`, `layers`, `batch_size`
    and its sequence caps) are ints in [1, MAX_SIZE]: the settings that
    shape a network and its batches, in training and in inference."""
    for name in hp.SIZES:
        value = getattr(hp, name)
        check_count(name, value, 1, what)
        if value > MAX_SIZE:
            raise DataError(f"{what} {name} must be at most {MAX_SIZE}, got {value!r}")


def check_training_hp(hp) -> None:
    """The rules every network's setting shares: `check_sizes`, `epochs` an
    int >= 0, `learning_rate` a finite number > 0 and `dropout` a number in
    [0, 1).

    The settings' `check` calls it. Loading a checkpoint checks only what
    inference reads (`check_sizes`), so a header whose `epochs` no longer
    passes still loads for inference."""
    check_sizes(hp)
    check_count("epochs", hp.epochs, 0)
    check_positive("learning_rate", hp.learning_rate)
    check_number("dropout", hp.dropout, lambda v: 0 <= v < 1, "a number in [0, 1)")
