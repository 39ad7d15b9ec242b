import contextlib
import warnings

import pytest
from hypothesis import settings

from checked import checking

# Hypothesis imports its failure-patch writer only when it reports a failing
# example.  That module imports libcst, which emits mypy_extensions'
# TypedDict DeprecationWarning, and under ``-W error`` the warning would
# raise inside pytest's reporting hook: an INTERNALERROR instead of FAILED.
# Import it once here, ignoring that one warning.  Without libcst (a plain
# ``.[test]`` install) there is nothing to import.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# Property tests draw the same examples on every run and never fail on a
# slow example, so a tier-1 run cannot flake on the host's timing.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def checked(request):
    """Runs the test's simulations on ``CheckedTimeline`` (see ``checked.py``).

    On by default; parametrize it indirectly with ``[False, True]`` to run a
    test both ways.
    """
    on = getattr(request, "param", True)
    with checking() if on else contextlib.nullcontext():
        yield on
