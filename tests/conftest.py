import contextlib
from unittest import mock

import pytest

from adabloom import tuning
from adabloom.scores import gen_synthetic


@pytest.fixture(scope="session")
def synth_small():
    """10k/10k default-shape dataset for module-level checks."""
    return gen_synthetic(10_000, 10_000, seed=11)


@pytest.fixture(scope="session")
def synth_bench():
    """The 50k/50k dataset the acceptance comparisons run on."""
    return gen_synthetic(50_000, 50_000, seed=7)


@pytest.fixture
def wrapped_tuners():
    """Each ``adabloom.tuning.tune_*`` wrapped in a call-counting mock, by name.

    perfbench's tracer swaps these module attributes the same way, so a
    caller that holds the function objects bypasses both.
    """
    names = ("tune_lbf", "tune_sandwiched", "tune_ada", "tune_disjoint")
    with contextlib.ExitStack() as stack:
        yield {name: stack.enter_context(
                   mock.patch.object(tuning, name, wraps=getattr(tuning, name)))
               for name in names}
