"""Shared test utilities, including the eigenvalue bisection oracle."""

import numpy as np


def eig_bisection(h, tol=1e-12):
    """Eigenvalues of a Hermitian matrix by root bisection, ascending.

    The characteristic polynomial's root-counting function is evaluated
    through Sylvester's law of inertia: the number of negative pivots of
    the symmetric elimination of H - x*1 equals the number of eigenvalues
    below x.  Each eigenvalue is then located by bisecting the count
    transition inside a Gershgorin interval.  Entirely independent of the
    LAPACK route used by the package.
    """
    a = np.asarray(h, dtype=np.complex128)
    n = a.shape[0]
    diag = np.diag(a).real
    radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    lo = float(np.min(diag - radii)) - 1e-9
    hi = float(np.max(diag + radii)) + 1e-9

    def count_below(x):
        m = a - x * np.eye(n)
        count = 0
        for j in range(n):
            d = m[j, j].real
            if d == 0.0:
                d = -1e-300
            if d < 0.0:
                count += 1
            if j + 1 < n:
                col = m[j + 1 :, j].copy()
                m[j + 1 :, j + 1 :] -= np.outer(col, col.conj()) / d
        return count

    roots = []
    for idx in range(1, n + 1):
        a_lo, a_hi = lo, hi
        while a_hi - a_lo > tol:
            mid = 0.5 * (a_lo + a_hi)
            if count_below(mid) >= idx:
                a_hi = mid
            else:
                a_lo = mid
        roots.append(0.5 * (a_lo + a_hi))
    return np.array(roots)


def random_hermitian_matrix(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)
