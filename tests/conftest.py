import contextlib

import pytest
from hypothesis import settings

from checked import checking

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
