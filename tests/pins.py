"""The NumPy dispatch class that the pinned bytes of the tests depend on.

NumPy's exp, log, power, expm1 and log1p round differently in their X86_V4
(AVX-512) loops and in the loops it takes on a CPU without them, so each
pinned sha256 or float.hex that such a call reaches has one value per
class, and the tests pick the value of the class they run in.  No BLAS or
LAPACK call reaches a pinned number, so the OpenBLAS core does not enter.
"""

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

X86_V4 = bool(__cpu_features__.get("X86_V4"))

# makes NumPy take, on an X86_V4 machine, the loops of a CPU without it
WITHOUT_X86_V4 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def pin(x86_v4, other):
    """The pinned value of the dispatch class this process runs in."""
    return x86_v4 if X86_V4 else other
