"""Default numerical tolerances, shared across the toolkit.

TOL_ALG guards algebraic identities (relative, double-precision
eigendecomposition accuracy).  TOL_PSD_FACTOR scales with the operator norm
and floors eigenvalues before square roots.  TOL_GRAPH separates genuine
graph violations from roundoff; TOL_GAP decides when (1 - z*z) counts as
invertible.  All are overridable per call.
"""
import sys

TOL_ALG = 1e-10
TOL_PSD_FACTOR = 1e-12
TOL_GRAPH = 1e-9
TOL_GAP = 1e-12

# condition-number ceiling for (1 + T*T) before the bounded transform refuses
RESOLVENT_COND_MAX = 1e14

# relative singular-value gap accepted as numerical-kernel evidence
KERNEL_GAP = 1e-6

# rank cutoff relative to the largest singular value
RANK_RTOL = 1e-12

# entrywise tolerance of the Gram-matrix check of a domain frame
FRAME_ORTHO_ATOL = 1e-10

# graph inclusion accepts a domain-membership residual <= MEMBERSHIP_SLACK * tol
MEMBERSHIP_SLACK = 2.0

# unitarity and isometry gates accept ||u*u - 1||_2 <= UNITARY_SLACK * tol
UNITARY_SLACK = 10.0

# two domains count as one when ||P_1 - P_2||_2 <= PROJECTOR_GATE * tol
PROJECTOR_GATE = 10.0

# a continuous gauge's adjacent conjugation deviation roughly halves when
# the grid step does; a fine/coarse ratio above this flags a discontinuity
GAUGE_HALVING_RATIO = 0.85

# Lanczos on X*X stops once the top Ritz pair (theta, y) has the residual
# ||X*X y - theta y|| <= RITZ_RESIDUAL * theta, a few ulps of theta
RITZ_RESIDUAL = 4 * sys.float_info.epsilon

# two gauge increments q_i = p_{i+1} conj(p_i) count as one when
# max |q_i - q_j| <= GAUGE_INCREMENT_MATCH, a few ulps of roundoff
GAUGE_INCREMENT_MATCH = 16 * sys.float_info.epsilon

# a reduced grid matrix counts as a Hermitian circulant when each entry is
# within CIRCULANT_MATCH * max|c| of its shifted first column c and each
# fft(c) within CIRCULANT_MATCH * sum|c| of the real axis, a few ulps
CIRCULANT_MATCH = 16 * sys.float_info.epsilon

# two eigenvalues d of 1 + T0^2 for a circulant T0 count as one pole of the
# secular equation when they differ by at most SPECTRUM_GROUP_MATCH * max d;
# mathematically equal ones differ by a few ulps of max d, distinct ones on
# the periodic grid by more than 1e-8 of it up to n = 20000
SPECTRUM_GROUP_MATCH = 64 * sys.float_info.epsilon
