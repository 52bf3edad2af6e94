"""Central tolerance and limit constants.

Everything numeric that acts as a pass/fail threshold lives here so the
choices are documented in one place.  All values assume IEEE double
arithmetic in the public API; extended precision is internal to the zero
computation.
"""

# Scheme validation.  CONSISTENCY_TOL bounds every order condition: the
# degree-1 ones, |sum(a) - 1| and |sum(b) - 1|, and each word of degree
# 2..n in log S that an order-n claim needs to vanish (the catalog gate and
# `adapt --check`).  The catalog's entries meet theirs to 2.2e-16 on
# {A, B} (6.7e-16 for their sweeps on 2-5 letters) and miss the next
# degree by 1.9e-4 (blanes-moan4) to 0.17 (strang).
CONSISTENCY_TOL = 1e-12
SYMMETRY_TOL = 1e-14          # component-wise palindrome check
LEADING_ERROR_ZERO_TOL = 1e-12  # leading-error norm read as zero: order underclaimed

# Evolution / error metrics
HERMITICITY_TOL = 1e-13       # component-wise, OperatorSplit parts
PLATEAU_ERROR = 1e-12         # round-off plateau cut in order fits

# Polynomial factorization
ZERO_RESIDUAL_PER_K = 1e-25   # per root: (|p| + kernel allowance) / |p'| < this * k
# Newton steps requested (kernel evaluations) per root, and sweeps of the
# guess refinement.  Polished Szego guesses meet the stop rule in 2
# evaluations at every Taylor k up to TAYLOR_K_MAX (1 at k = 1), the
# unpolished ones a failed polish leaves within 8 (7 up to k = 300), and
# the stored zeros a zero file starts a solve from within 2; colleague
# guesses within 3-5 for well-resolved Chebyshev, refined guesses within 2;
# the colleague guesses of an over-resolved real-axis truncation take up
# to 40 or miss, as do those of an imaginary-axis one far above its
# admissible k at its first digits.  There the refined pass misses the
# contract too, and the one set-up at the digits it measures certifies
# each refined guess within 2.  Below the admissible k on the imaginary
# axis the colleague guesses converge within 3 but miss the contract, and
# the set-up at the digits that pass measures certifies each within 3.
NEWTON_MAX_STEPS = 100
TAYLOR_K_MAX = 400
BESSEL_X_MAX = 500.0
VALIDITY_TRUNCATION = 1e-13   # truncation level defining the Taylor validity disk

# Polynomial evaluation.  An operator whose nonzeros fill at most this share
# of it is applied to a state (a 1-D target) through its entries: a gather,
# multiply and row sum.  Measured against the dense gemv (one BLAS thread,
# random complex operators, median of 200 applies): the entries win below a
# fill of about 0.2-0.25 at n = 512 and 1024 and 0.1 at n = 256, and a full
# operator costs 4.5-8x through its entries at n = 64-1024.  At n <= 128 the
# gemv is ahead at any fill, by at most 3 us per apply.  An L = 10 XXZ H
# (fill 0.54%) is scanned for its nonzeros in 0.94-1.03 ms (2.2-2.4 ms as
# complex m != 0), its table cut to the one 252-state sector the Neel
# state meets, a search of 16 rounds, the last adding nothing, in 0.33-0.40
# ms, and then applied through that sector's rows to a full-length vector
# in 0.011-0.018 ms, against 0.047 ms through all its entries and
# 0.74-0.77 ms as a gemv (one BLAS thread, medians of 200-2000 runs).
ENTRY_APPLY_MAX_FILL = 1 / 8

# Model / bench
DENSE_DIM_CAP = 4096
GAMMA_MARGIN = 1.01           # Gamma = margin * spectral bound
DEFAULT_KAPPA = 6.0           # polynomial cost model q = k / kappa

DEFAULT_SEED = 12345
