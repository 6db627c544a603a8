"""Name of the compute path behind :mod:`cpalign.kernels`.

There is one path: vectorized numpy (float64, BLAS for the GEMMs),
specialised by input shape inside each kernel. :data:`ACTIVE` names it so
reports and benchmark records can state which path produced their numbers.
"""

from __future__ import annotations

#: the kernel path in use; always "numpy"
ACTIVE = "numpy"
