"""Pin BLAS and OpenMP to one thread for the whole suite.

The thread pools read these variables once, when numpy first loads, so this
file must run before any import of numpy.  With two OpenBLAS threads on a
host with other work, small matrix products stall in thread hand-off: the
greedy-split criterion took 355 s that way, against 190 s on one thread.
No assertion depends on the thread count.
"""

import os
import sys
import warnings

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; "
                  "its BLAS thread count is not pinned")
