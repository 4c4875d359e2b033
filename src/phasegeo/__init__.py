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

from .bundle import (
    DEG_TOL_DEFAULT,
    RANK_TOL_DEFAULT,
    DensityOperator,
    GaugeAlgebraElement,
    Lift,
    Spectrum,
    block_projectors,
    connection_form,
    gauge_transform,
    inertia_inner,
    moment_pairing,
    project,
    spectrum_of,
    split,
    standard_lift,
)
from .linalg import (
    EigenDecomposition,
    as_complex_matrix,
    form_omega,
    hermitian_eig,
    hs_inner,
    metric_g,
)
from .observables import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BracketPair,
    Observable,
    bracket_matrix,
    brackets,
    brackets_at_lift,
    chi_element,
    expected_value,
    ham_field,
    spin_half,
    sym_covariance,
    xi_field,
    xi_perp,
)
from .sampling import (
    make_rng,
    sample_density,
    sample_gauge_algebra,
    sample_gauge_unitary,
    sample_hermitian,
    sample_spectrum,
    sample_unitary,
)
from .uncertainty import (
    CauchySchwarz,
    RelationViolationError,
    UncertaintyReport,
    VarianceBound,
    analyze_pair,
    analyze_pairs,
    cauchy_schwarz_check,
    geometric_bound,
    rs_bound,
    variance,
    variance_bound_check,
)
from .verify import CheckResult, run_battery, tolerance_scale

__version__ = "0.1.0"
