import os

import pytest
from hypothesis import settings

from groupwalk.construction import build_measure
from groupwalk.presets import preset_state

# `ci` prints a @reproduce_failure blob with every falsifying example;
# select it with HYPOTHESIS_PROFILE=ci
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def f2xz_state():
    # the flagship run: 32 stages on F2 x Z, shared by most suites
    return preset_state("f2xz", seed=20260813, stages=32)


@pytest.fixture(scope="session")
def f2xz_nu(f2xz_state):
    return build_measure(f2xz_state, mode="float")


@pytest.fixture(scope="session")
def f2xz_nu_exact(f2xz_state):
    return build_measure(f2xz_state, mode="exact")


@pytest.fixture(scope="session")
def z_state():
    return preset_state("z-amenable", seed=20260813, stages=50)
