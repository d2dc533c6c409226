"""Standard gate matrices and the controlled gates built from them."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .kernel import kron_all

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
TDG = T.conj().T
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)

CX = np.kron(P0, I2) + np.kron(P1, X)
CZ = np.kron(P0, I2) + np.kron(P1, Z)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CCX = np.kron(P0, np.eye(4)) + np.kron(P1, CX)
CCZ = np.kron(P0, np.eye(4)) + np.kron(P1, CZ)

PAULI_1Q = {"I": I2, "X": X, "Y": Y, "Z": Z}

GATE_MATRICES = {
    "H": H,
    "T": T,
    "Tdg": TDG,
    "X": X,
    "Y": Y,
    "Z": Z,
    "S": S,
    "CX": CX,
    "CZ": CZ,
    "SWAP": SWAP,
    "CCX": CCX,
    "CCZ": CCZ,
}


def controlled(u):
    """Qubit-controlled version of a unitary matrix."""
    d = u.shape[0]
    return np.kron(P0, np.eye(d)) + np.kron(P1, np.asarray(u, dtype=complex))


def pauli_string_matrix(label):
    """Matrix of a Pauli string such as 'Z', 'ZZ', or 'XIZ'."""
    label = label.strip()
    if not label or any(c not in PAULI_1Q for c in label):
        raise ValidationError(f"bad Pauli string {label!r}")
    return kron_all([PAULI_1Q[c] for c in label])
