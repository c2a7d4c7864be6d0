"""Test-session setup shared by every test module."""

import warnings

# When a hypothesis test fails, its reporter imports hypothesis.extra._patching,
# which imports libcst; where libcst pulls in a mypy_extensions that warns
# DeprecationWarning on import, pyproject's filterwarnings = ["error"] turns
# that import into an INTERNALERROR that aborts the whole run. Importing it
# here, under its own warnings filter, lets failures report one by one and
# leaves the warnings policy as it is for everything the tests run.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
