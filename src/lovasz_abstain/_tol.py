"""The package's numerical tolerances, each with what it separates.

Tables hold small rationals and their exact identities survive float
arithmetic up to rounding, so two scales suffice: 1e-9 where a real
difference must be told from float noise, 1e-12 where an identity is exact.
"""

ATOL = 1e-9  # set-function values: a real tie or bound violation vs. float noise
ARGMIN_TOL = 1e-9  # expected losses: an exact tie with the minimum vs. rounding
GAP_TOL = 1e-9  # envelope boundary: a gap (or hull distance) exactly at its eps bound vs. just past it
MARGIN = 1e-9  # strict uniqueness: a best report that beats the runner-up vs. one that only ties it
# MARGIN >= ARGMIN_TOL: a report more than MARGIN below every other is then its whole optimal set
EXACT_TOL = 1e-12  # exact identities (hinge = loss at reports, sums to 1): rounding vs. a real mismatch
