"""Numeric thresholds and resource bounds used across the package.

Every tolerance that appears in a contract lives here, so that tests and
library code agree on one set of numbers.
"""

# Residual allowed when an object is built from exactly specified data
# (structure constants, skew coefficients, section consistency).
CONSTRUCTION_TOL = 1e-12

# Residual allowed when verifying an algebraic identity numerically
# (duality, Jacobi of a valid algebra, closed forms vs. brute force).
VERIFICATION_TOL = 1e-10

# Compatibility of cocycle data: below PASS the extension is accepted,
# above FAIL it is rejected, in between the verdict is "indeterminate".
COMPATIBILITY_PASS = 1e-8
COMPATIBILITY_FAIL = 1e-6

# A pairing gram counts as invertible when smallest/largest singular
# value exceeds this ratio.
GRAM_CONDITION_TOL = 1e-10

# Largest principal angle (as projector-difference norm) below which two
# subspaces count as equal.
SUBSPACE_TOL = 1e-8

# Relative step for central finite differences.
FD_STEP = 1e-5

# Relative step of the one-sided differences behind the midpoint Newton
# Jacobian: a column is (f(z + h e_j) - f(z)) / h, h = this * max(1, |z|).
JACOBIAN_FD_STEP = 1e-7

# Simplified Newton keeps its midpoint iteration matrix while each
# iteration shrinks the stage residual norm by at least this factor, and
# rebuilds the Jacobian at the first iteration that does not.
NEWTON_CONTRACTION = 0.5

# Largest number of values a simulated trajectory may store: (steps + 1)
# rows of the time, the state coordinates and the tracked columns.  As
# float64 that is 80 MB, and about 250 MB of CSV text.
MAX_TRAJECTORY_VALUES = 10_000_000

# Largest number of terms one array built from a config, or one join, may
# hold: the CLI counts the values its builders will write (the built
# extension's d^2 gram, more than its nonzero constants, or the W*-split's
# basis), linalg.join the nonzero products of a join (~270 bytes each).
MAX_SPARSE_TERMS = 2**20

# Largest number of nonzero products one lead index of a blocked identity
# residual may pair.  linalg.max_abs_by_lead forms each residual (Jacobi,
# derivation, cocycle, representation) in blocks of whole lead indices,
# and refuses a lead index whose products alone exceed this bound before
# any product is formed.
MAX_LEAD_TERMS = MAX_SPARSE_TERMS // 4

# Working-set target of one block of linalg.max_abs_by_lead: consecutive
# lead indices are packed into blocks of at most this many products (one
# lead index of more forms a block of its own), so a residual's memory
# stays near 2^13 * 280 bytes (~2 MB, the sorted keys included) at any size
# while no lead index pairs more; one of MAX_LEAD_TERMS takes ~70 MB.
BLOCK_TERMS = 2**13

# Largest dimension at which integrate_flow runs RK4 on Python floats for a
# compiled real field with no linear part and at most one product per row.
# Such a numpy step is mostly the fixed cost of its ~30 calls, which the
# generated float step saves, while the step's own cost grows with d: with
# a product in every row it was 9.1-9.5x faster than the in-place numpy
# step at d = 3, 2.2-2.3x at d = 16, 1.6x at d = 24 and 1.1x at d = 32
# (2 000 steps, best of 7, 2 shared vCPUs), so the bound keeps a margin
# below the crossover.
RK4_FLOAT_MAX_DIM = 16

# Number of RK4 steps integrate_flow writes between finiteness checks of a
# compiled field's states; a float-path block holds this many rows of
# Python floats before they are copied into the trajectory.
RK4_BLOCK_STEPS = 256

# Largest number of values csvtext formats in one block of whole rows.  A
# block's numpy working set peaks near 0.5 MB; simulate writes each block
# out before it forms the next, so this and one block's ~100 KB of text
# are all the CSV memory a run holds.
CSV_BLOCK_VALUES = 4096
