"""Numerical tolerances, shared across the toolkit.

TOL_ALG guards algebraic identities (relative, double-precision
eigendecomposition accuracy).  TOL_GRAPH separates genuine graph violations
from roundoff; TOL_GAP decides when (1 - z*z) counts as invertible.  Every
check and threshold reads its constant from here, the jump detector's
JUMP_MEDIAN_FACTOR and JUMP_FLOOR and the adjoint pinning's PAIRING_DEFECT_C
too, and a gate that raises is written ``if not value <= bound``, which a
NaN fails.  No function takes a tolerance as a parameter: the graph
comparisons (``graph_inclusion``, ``grid_inclusion`` and
``DomainedOperator.contains``) read TOL_GRAPH, and no run can set it.  The
one exception is ``operators._inclusion`` and ``_same_span``: their ``bound``
is TOL_GRAPH in ``graph_inclusion``, TOL_ALG in the correspondence's round trips.
"""
import sys

TOL_ALG = 1e-10
TOL_GRAPH = 1e-9
TOL_GAP = 1e-12

# condition-number ceiling for (1 + T*T) before the bounded transform refuses
RESOLVENT_COND_MAX = 1e14

# relative singular-value gap accepted as numerical-kernel evidence
KERNEL_GAP = 1e-6

# rank cutoff relative to the largest singular value
RANK_RTOL = 1e-12

# a domain frame F passes when max |F*F - 1| <= FRAME_ORTHO_ATOL, entry by
# entry, with no part relative to the entries
FRAME_ORTHO_ATOL = 1e-10

# graph inclusion accepts a domain-membership residual
# <= MEMBERSHIP_SLACK * TOL_GRAPH
MEMBERSHIP_SLACK = 2.0

# unitarity and isometry gates accept ||u*u - 1||_2 <= UNITARY_SLACK * TOL_ALG
UNITARY_SLACK = 10.0

# two domains count as one when ||P_1 - P_2||_2 <= PROJECTOR_GATE * TOL_ALG,
# in the round trips of the correspondence
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

# a transform field's adjacent deviation flags a discontinuity above both
# JUMP_MEDIAN_FACTOR times the median and the absolute JUMP_FLOOR, so that
# constant fields with roundoff never flag
JUMP_MEDIAN_FACTOR = 10.0
JUMP_FLOOR = 1e-10

# smooth-probe summation-by-parts defect allowance, units of h^2 (measured
# constant is ~22 for the stencils in use; factor three of headroom)
PAIRING_DEFECT_C = 60.0
