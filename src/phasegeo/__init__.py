"""Geometry of isospectral density-operator orbits.

The package realizes the purification bundle over the unitary orbit of a
fixed spectrum, the mechanical connection with its vertical/horizontal
splitting, the Riemannian and Poisson brackets of expectation functions,
and the geometric uncertainty bound they produce, side by side with the
Robertson-Schrodinger baseline.

Conventions: for a lift Psi (an n-by-k matrix with Psi† Psi equal to the
diagonal spectrum matrix P), the metric and symplectic form are 2*hbar
times the real and imaginary parts of the Hilbert-Schmidt product, and the
gauge-algebra inner product carries the same hbar factor so that it agrees
with the metric on vertical vectors.
"""

# The package API is the union of these modules' __all__ lists.
from .bundle import *
from .linalg import *
from .observables import *
from .sampling import *
from .uncertainty import *
from .verify import *

__version__ = "0.1.0"
