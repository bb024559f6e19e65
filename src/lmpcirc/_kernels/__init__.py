"""The simplex pivot kernel (numpy).

``lp`` calls ``run_simplex`` through this module, so a caller can swap or wrap
it here.
"""

from ._simplex_py import STATUS_ITER_LIMIT, STATUS_OPTIMAL, STATUS_UNBOUNDED, run_simplex

BACKEND = "python"
