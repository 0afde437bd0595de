import pathlib

import numpy as np
import pytest
from hypothesis import settings

from dwigner.stabilizer import mub_stabilizer_states

# the same examples on every run, and no per-example deadline on a busy machine
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"


@pytest.fixture(scope="session")
def samples_dir():
    return SAMPLES


@pytest.fixture(scope="session")
def mub3():
    return mub_stabilizer_states(3)


@pytest.fixture(scope="session")
def mub5():
    return mub_stabilizer_states(5)


@pytest.fixture(scope="session")
def strange_state():
    v = np.zeros(3, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    return np.outer(v, v.conj())
