"""Quantum error correction toolkit: correctability and detection checks,
recovery construction, logical ebits, and toy-scale logical composition.

A code document, in the line grammar of `qvn.text`, is a QVN1 header with
`k=` (and optionally `distance=`) and one `isometry` line:

    QVN1 name=<text> n=<1..MAX_CODE_QUBITS> k=<0..MAX_CODE_QUBITS> distance=<int >= 1>
    isometry rows=<2^n> cols=<2^k> data=<re,im;re,im;...>
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    KlConditionError,
    ParseError,
    ValidationError,
)
from .kernel import DEFAULT_TOL, KrausChannel, PureState, RngStream, apply_to_subsystems, kron_all
from .text import format_complex_data, lines
from .uqt import BellBasis, ByproductStrategy, teleport


@dataclass(frozen=True, eq=False)
class Code:
    """[[n, k, d]] code given by its encoding isometry V with V†V = I."""

    n: int
    k: int
    isometry: np.ndarray
    distance: int = 1
    name: str = "code"

    def __init__(self, n, k, isometry, distance=1, name="code"):
        v = np.asarray(isometry, dtype=complex)
        if v.shape != (2**n, 2**k):
            raise ValidationError(
                f"isometry shape {v.shape} does not match [[{n},{k}]] code"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("isometry contains non-finite entries")
        resid = np.abs(v.conj().T @ v - np.eye(2**k)).max()
        if resid > DEFAULT_TOL * 2**k:
            raise ValidationError(f"V†V deviates from identity by {resid}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "isometry", v)
        object.__setattr__(self, "distance", int(distance))
        object.__setattr__(self, "name", str(name))

    @property
    def projector(self) -> np.ndarray:
        return self.isometry @ self.isometry.conj().T

    @property
    def physical_dim(self):
        return 2**self.n

    @property
    def logical_dim(self):
        return 2**self.k


def bit_flip_code() -> Code:
    """3-qubit repetition code |b⟩ ↦ |bbb⟩."""
    v = np.zeros((8, 2), dtype=complex)
    v[0, 0] = 1.0
    v[7, 1] = 1.0
    return Code(3, 1, v, distance=1, name="bitflip3")


def phase_flip_code() -> Code:
    """Hadamard-rotated repetition code, protecting against single Z."""
    h3 = kron_all([gates.H, gates.H, gates.H])
    return Code(3, 1, h3 @ bit_flip_code().isometry, distance=1, name="phaseflip3")


def pauli_site_operator(token, n) -> np.ndarray:
    """Operator from a token like 'I', 'X0', or 'X0Z2' on n qubits."""
    token = token.strip()
    if token == "I":
        return np.eye(2**n, dtype=complex)
    parts = re.findall(r"([XYZ])(\d+)", token)
    if not parts or "".join(p + i for p, i in parts) != token:
        raise ValidationError(f"bad error token {token!r}")
    # each Pauli acts on its wire of the identity; the column index rides along
    d = 2**n
    dims = (2,) * n + (d,)
    out = np.eye(d, dtype=complex)
    for pauli, idx in parts:
        site = int(idx)
        if site >= n:
            raise ValidationError(f"site {site} out of range in token {token!r}")
        out = apply_to_subsystems(out, dims, gates.PAULI_1Q[pauli], [site])
    return out.reshape(d, d)


def error_channel(errors, probabilities=None) -> KrausChannel:
    """Channel with Kraus √p_i E_i for trace-preserving error sets."""
    errors = [np.asarray(e, dtype=complex) for e in errors]
    if probabilities is None:
        probabilities = [1.0 / len(errors)] * len(errors)
    return KrausChannel([math.sqrt(p) * e for p, e in zip(probabilities, errors)])


@dataclass(frozen=True, eq=False)
class KlResult:
    satisfied: bool
    c: np.ndarray
    max_residual: float


@dataclass(frozen=True, eq=False)
class DetectionResult:
    satisfied: bool
    coefficients: np.ndarray
    max_residual: float


@dataclass(frozen=True, eq=False)
class Recovery:
    """Recovery channel; the first `n_correction` Kraus are the P F_k†/√d_k
    terms, the optional last one completes the map to trace preserving."""

    channel: KrausChannel
    n_correction: int


def _proportionality(m, p, tr_p):
    coeff = complex(np.trace(m)) / tr_p
    resid = float(np.abs(m - coeff * p).max())
    return coeff, resid


def check_kl(code: Code, errors) -> KlResult:
    """Test P E_i† E_j P = c_ij P for every error pair."""
    p = code.projector
    tr_p = float(np.trace(p).real)
    errors = [np.asarray(e, dtype=complex) for e in errors]
    for e in errors:
        if e.shape != p.shape:
            raise DimensionMismatchError("error operator does not match code dimension")
    m = len(errors)
    c = np.zeros((m, m), dtype=complex)
    worst = 0.0
    for i in range(m):
        for j in range(m):
            block = p @ errors[i].conj().T @ errors[j] @ p
            c[i, j], resid = _proportionality(block, p, tr_p)
            worst = max(worst, resid)
    return KlResult(worst <= DEFAULT_TOL, c, worst)


def check_detection(code: Code, errors) -> DetectionResult:
    """Test the weaker detection condition P E_i P = e_i P."""
    p = code.projector
    tr_p = float(np.trace(p).real)
    errors = [np.asarray(e, dtype=complex) for e in errors]
    coeffs = np.zeros(len(errors), dtype=complex)
    worst = 0.0
    for i, e in enumerate(errors):
        if e.shape != p.shape:
            raise DimensionMismatchError("error operator does not match code dimension")
        coeffs[i], resid = _proportionality(p @ e @ p, p, tr_p)
        worst = max(worst, resid)
    return DetectionResult(worst <= DEFAULT_TOL, coeffs, worst)


def build_recovery(code: Code, errors) -> Recovery:
    """Recovery Kraus R_k = P F_k†/√d_k from the diagonalized c matrix.

    The F_k = Σ_i W_ik E_i orthogonalize the errors on the code space; the
    map is completed to trace preserving by √(I − Σ R†R), which is
    supported only off the correctable subspace.
    """
    res = check_kl(code, errors)
    if not res.satisfied:
        raise KlConditionError(
            f"error set violates the correctability condition (residual {res.max_residual})",
            residual=res.max_residual,
        )
    errors = [np.asarray(e, dtype=complex) for e in errors]
    vals, w = np.linalg.eigh(res.c)
    p = code.projector
    cutoff = 1e-12 * max(1.0, float(vals.max()))
    kraus = []
    for idx in range(len(vals)):
        if vals[idx] <= cutoff:
            continue
        f_k = sum(w[i, idx] * errors[i] for i in range(len(errors)))
        kraus.append((p @ f_k.conj().T) / math.sqrt(float(vals[idx])))
    n_corr = len(kraus)
    acc = sum(r.conj().T @ r for r in kraus)
    gap = np.eye(p.shape[0]) - acc
    if np.abs(gap).max() > DEFAULT_TOL:
        gvals, gvecs = np.linalg.eigh(gap)
        gvals = np.clip(gvals, 0.0, None)
        kraus.append(gvecs @ np.diag(np.sqrt(gvals)) @ gvecs.conj().T)
    return Recovery(KrausChannel(kraus, tol=1e-9), n_corr)


def _encoded_pair(a, b, logical_dim) -> np.ndarray:
    """Amplitudes of (A ⊗ B)|ω⟩ = vec(A Bᵀ)/√2ᵏ for |ω⟩ on two logical blocks."""
    return (a @ b.T).reshape(-1) / math.sqrt(logical_dim)


def logical_ebit(code: Code) -> PureState:
    """(V ⊗ V)|ω⟩: the encoded ebit across two code blocks."""
    v = code.isometry
    amp = _encoded_pair(v, v, code.logical_dim)
    return PureState(amp, (code.physical_dim, code.physical_dim))


@dataclass(frozen=True, eq=False)
class LogicalProgram:
    """A logical gate stored on an encoded ebit.

    Unlike a bare stored program, the dual state lives on the code space,
    so the head/tail marginals are P/2^k rather than maximally mixed. A
    byproduct is corrected by conjugating the physical Pauli with the gate.
    """

    code: Code
    gate: np.ndarray
    state: PureState

    @property
    def basis(self) -> BellBasis:
        return BellBasis.qubit_product(self.code.n)


def logical_program(code: Code, gate) -> LogicalProgram:
    """Encoded program for a physical-level logical gate ([U, P] = 0).

    The encoding isometry must be real: a complex code basis reintroduces
    the transpose obstruction that symmetric gates are meant to avoid.
    """
    u = np.asarray(gate, dtype=complex)
    n_dim = code.physical_dim
    if u.shape != (n_dim, n_dim):
        raise DimensionMismatchError(f"gate shape {u.shape} != physical dim {n_dim}")
    if np.abs(code.isometry.imag).max() > DEFAULT_TOL:
        raise ValidationError(
            "logical composition needs a real encoding isometry"
        )
    p = code.projector
    if np.abs(u @ p - p @ u).max() > DEFAULT_TOL * n_dim:
        raise ValidationError("gate does not commute with the code projector")
    amp = _encoded_pair(u @ code.isometry, code.isometry, code.logical_dim)
    return LogicalProgram(code=code, gate=u, state=PureState(amp, (n_dim, n_dim)))


def logical_compose(
    p1: LogicalProgram,
    p2: LogicalProgram,
    strategy: ByproductStrategy,
    rng: RngStream,
    tol=DEFAULT_TOL,
):
    """Compose encoded programs by physical-level gate teleportation.

    Symmetric logical gates are required: the transpose-free pairing then
    needs only the physical corrections. SymmetricPair, like
    CorrectionTable, is one corrected round. Returns (result, shots_used).
    """
    if p1.code is not p2.code and not np.array_equal(p1.code.isometry, p2.code.isometry):
        raise ValidationError("programs live on different codes")
    if not np.abs(p2.gate - p2.gate.T).max() <= tol:
        raise ConfigurationError(
            "logical composition needs a symmetric logical gate on the second program"
        )
    state, shots = teleport(
        p1.state.amplitudes, p2.state.amplitudes, p2.basis, p2.gate, strategy, rng
    )
    result = LogicalProgram(code=p1.code, gate=p2.gate @ p1.gate, state=state)
    return result, shots


# ---------------------------------------------------------------------------
# Code documents (QVN1 with an isometry block)
# ---------------------------------------------------------------------------

# Widest code a document may give, in `n=` and `k=`: the header sizes the
# 2ⁿ×2ᵏ isometry before its data is read, and every error operator checked
# against the code is a dense 2ⁿ×2ⁿ matrix, 16 MiB at n = 10. Shor's
# [[9, 1, 3]] code fits.
MAX_CODE_QUBITS = 10


def serialize_code(code: Code) -> str:
    header = f"QVN1 name={code.name} n={code.n} k={code.k} distance={code.distance}"
    iso = (
        f"isometry rows={code.physical_dim} cols={code.logical_dim} "
        f"data={format_complex_data(code.isometry)}"
    )
    return header + "\n" + iso + "\n"


def parse_code(text: str) -> Code:
    header = iso_line = None
    for line in lines(text):
        if header is None:
            if line.verb != "QVN1":
                raise line.error("code document must start with a QVN1 header")
            n = line.int("n", low=1, high=MAX_CODE_QUBITS)
            k = line.int("k", low=0, high=MAX_CODE_QUBITS)
            header = (line.str("name"), n, k, line.int("distance", 1, low=1))
        elif line.verb == "isometry":
            if iso_line is not None:
                raise line.error(f"a second isometry line; line {iso_line.no} is the isometry")
            iso_line = line
            iso = line.matrix(line.int("rows", low=1), line.int("cols", low=1))
        else:
            raise line.error("expected an isometry line")
        line.done()
    if header is None:
        raise ParseError("empty code document", 1, 1)
    if iso_line is None:
        raise ParseError("code document lacks an isometry block", 1, 1)
    name, n, k, distance = header
    with iso_line.located():
        return Code(n, k, iso, distance=distance, name=name)
