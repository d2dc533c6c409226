import tempfile

import numpy as np
import pytest

from qvn.kernel import RngStream

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # hypothesis is a test extra; tests/test_properties.py skips without it
    pass
else:
    # deterministic, no example database, few examples per property
    settings.register_profile(
        "qvn", derandomize=True, database=None, deadline=None, max_examples=100
    )
    settings.load_profile("qvn")
    # Hypothesis also caches the constants it finds in source files; keep
    # that cache in a temporary directory removed at exit, out of the tree.
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="qvn-hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture
def rng():
    return RngStream(20240811)


def spanning_pure_states(d):
    """d² pure states whose density matrices span the operator space."""
    states = []
    eye = np.eye(d, dtype=complex)
    for i in range(d):
        states.append(eye[:, i])
    for i in range(d):
        for j in range(i + 1, d):
            states.append((eye[:, i] + eye[:, j]) / np.sqrt(2))
            states.append((eye[:, i] + 1j * eye[:, j]) / np.sqrt(2))
    return states


def matrix_units(d):
    """All d² matrix units E_ij, the spanning set for channel equality."""
    units = []
    for i in range(d):
        for j in range(d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    return units


def kraus_action(kraus_ops, mat):
    """Direct Kraus-sum action on an arbitrary matrix (the dense oracle)."""
    return sum(k @ mat @ k.conj().T for k in kraus_ops)
