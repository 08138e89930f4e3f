"""Shared pytest setup for the package tests."""

import warnings

# Hypothesis imports its patch writer, and with it libcst where that is installed, while it
# reports a failing example. libcst's import raises a DeprecationWarning, which the test run
# turns into an error: the session ended in INTERNALERROR and the tests after it never ran.
# Imported here first, with that warning ignored, it is already loaded when a test fails.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
