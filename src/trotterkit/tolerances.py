"""Central tolerance and limit constants.

Everything numeric that acts as a pass/fail threshold lives here so the
choices are documented in one place.  All values assume IEEE double
arithmetic in the public API; extended precision is internal to the zero
computation.
"""

# Scheme validation
CONSISTENCY_TOL = 1e-12       # |sum(a) - 1|, |sum(b) - 1|
SYMMETRY_TOL = 1e-14          # component-wise palindrome check
CATALOG_ORDER_SLOPE_TOL = 0.5  # load-time empirical order gate
LEADING_ERROR_ZERO_TOL = 1e-12  # leading-error norm read as zero: order underclaimed

# Evolution / error metrics
HERMITICITY_TOL = 1e-13       # component-wise, OperatorSplit parts
PLATEAU_ERROR = 1e-12         # round-off plateau cut in order fits

# Polynomial factorization
ZERO_RESIDUAL_PER_K = 1e-25   # |p(z)/p'(z)| < ZERO_RESIDUAL_PER_K * k
ABERTH_MAX_SWEEPS = 200
TAYLOR_K_MAX = 400
BESSEL_X_MAX = 500.0
VALIDITY_TRUNCATION = 1e-13   # truncation level defining the Taylor validity disk

# Model / bench
DENSE_DIM_CAP = 4096
GAMMA_MARGIN = 1.01           # Gamma = margin * spectral bound
DEFAULT_KAPPA = 6.0           # polynomial cost model q = k / kappa

DEFAULT_SEED = 12345
