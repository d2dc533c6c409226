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


EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def einsum_oracle(diagram):
    """Unnormalized value of a diagram from one single-pass np.einsum, the
    oracle for `tailed.eval_topological`: a scalar for a closed diagram, a
    tensor with axes in `open_endpoints()` order for an open one. Its cost
    doubles per segment, so keep to m <= 12 segments."""
    assert len(diagram.segments) <= 12
    open_eps = diagram.open_endpoints()
    groups = [*diagram.segments, *((ep,) for ep in open_eps)]
    letters = {ep: c for c, group in zip(EINSUM_LETTERS, groups) for ep in group}
    terms = [
        "".join(letters[(v, kind, leg)] for kind in "ht" for leg in range(vert.legs))
        for v, vert in enumerate(diagram.vertices)
    ]
    spec = ",".join(terms) + "->" + "".join(letters[ep] for ep in open_eps)
    tensors = [vert.tensor() for vert in diagram.vertices]
    return np.einsum(spec, *tensors) * diagram.site_dim ** (-len(diagram.segments) / 2.0)
