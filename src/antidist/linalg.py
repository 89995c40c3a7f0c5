"""Dense complex linear algebra for small Hermitian problems.

Operators live in plain numpy arrays (complex128); real linear systems in
float64.  Each routine wraps a LAPACK call (through numpy) in the condition
its callers rely on: ``eigvalsh`` after a Hermitian check, ``lstsq`` with a
rank test, one SVD batched over the rows of a state set for the complement of
each state, and a QR with a positive R diagonal, which is the ordered
Gram-Schmidt basis.  State vectors come as the rows of an (n, d) array; the
span of a whole set is ``StateSet.span``, from one SVD per set.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystem

#: the default ``tol`` (``--tolerance``), the numerical zero of every scalar a
#: verdict rests on: exclusion probabilities (zero when <= tol); responses,
#: weights and the qubit margin (positive when > tol); overlaps (orthogonal
#: when <= tol); eigenvalues (>= -tol); singular values of a state set (a rank
#: counts those > tol); the fidelity-sum excess and the witness slack.  The four
#: constants below ignore ``tol``.
DEFAULT_TOL = 1e-9

#: Frobenius residual of an operator identity: sum_j M_j = I in a POVM,
#: sum_j t_j P_j = R (for qubit weights, sqrt(2) times the origin's distance
#: from the Bloch vectors' affine hull), an orbit sum = c R, a chart's columns
#: and resolution
RESIDUAL_TOL = 1e-8

#: operator Frobenius distance at or below which two states or group elements are the same
DUPLICATE_TOL = 1e-7

#: accepted deviation of an input vector's norm from 1 (renormalized exactly)
NORM_SLACK = 1e-6

#: singular values below this fraction of the largest one make a linear
#: system singular (a relative floor, not an absolute pivot size), and do not
#: count toward the rank of the centred Bloch vectors of a qubit set
PIVOT_FLOOR = 1e-12


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a)).T


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and frobenius(a - adjoint(a)) <= tol


def is_projection(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``a`` is Hermitian and idempotent within ``tol`` (Frobenius)."""
    a = np.asarray(a, dtype=complex)
    return is_hermitian(a, tol) and frobenius(a @ a - a) <= tol


def is_psd(a: np.ndarray, tol: float = DEFAULT_TOL):
    """True iff ``a`` is Hermitian within ``tol`` with min eigenvalue >= -tol.

    A stack of shape (k, d, d) is tested in one batch and gives k answers.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        return False
    adj = np.conj(np.swapaxes(a, -1, -2))
    ok = (np.linalg.norm(a - adj, axis=(-2, -1)) <= tol) & (
        np.linalg.eigvalsh((a + adj) / 2.0)[..., 0] >= -tol
    )
    return ok if a.ndim == 3 else bool(ok)


def solve_linear(a: np.ndarray, b: np.ndarray, pivot_floor: float = PIVOT_FLOOR) -> np.ndarray:
    """Solve the real square system ``a x = b``.

    Raises SingularSystem when a singular value of ``a`` falls below
    ``pivot_floor`` times the largest one, so that no unique solution exists.
    """
    m = np.asarray(a, dtype=float)
    x = np.asarray(b, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or x.shape != (m.shape[0],):
        raise ValueError("expected a square matrix and a matching vector")
    solution, _, rank, _ = np.linalg.lstsq(m, x, rcond=pivot_floor)
    if rank < m.shape[0]:
        raise SingularSystem("rank-deficient system has no unique solution")
    return solution


def complements(vectors: np.ndarray) -> np.ndarray:
    """(n, d, d-1) stack of isometries: the columns of slice j are an orthonormal
    basis of the orthogonal complement of row j of the (n, d) unit ``vectors``."""
    return np.linalg.svd(vectors[:, :, None])[0][:, :, 1:]


def orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Gram-Schmidt of the columns of ``a``, in order: the QR whose R has a
    positive real diagonal, which makes it unique."""
    q, r = np.linalg.qr(np.asarray(a, dtype=complex))
    q *= np.exp(1j * np.angle(np.diagonal(r)))
    return q

