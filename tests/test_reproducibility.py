"""The bytes contract: every pinned number is a function of the seed, index
and stream, the NumPy version and NumPy's dispatch class (pins.py), and of
nothing else on the machine.

No BLAS or LAPACK call may reach a number, so the pinned tests must pass
unchanged under another OpenBLAS core; and on an X86_V4 machine they must
also pass, with the other class's values, under the loops NumPy takes on a
CPU without it.  Each rerun is a fresh interpreter, because both variables
act only when NumPy loads.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pins

ROOT = Path(__file__).resolve().parents[1]

PINNED = [
    "tests/test_cli.py::test_output_bytes_pinned",
    "tests/test_engine.py::test_environment_and_path_bytes_are_pinned",
    "tests/test_estimate.py::TestHolderPathwise"
    "::test_bootstrap_memory_is_bounded",
    "tests/test_kernels.py::TestPairIntegral::test_benchmark_pairs_are_pinned",
    "tests/test_reproducibility.py::test_leggauss_is_pinned",
]

# names whose call would hand numbers to BLAS or LAPACK
_BLAS = {"linalg", "dot", "vdot", "inner", "einsum", "matmul", "tensordot"}


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: p.name)
def test_no_blas_or_lapack_call(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        assert not isinstance(getattr(node, "op", None), ast.MatMult), (
            f"{path.name}:{node.lineno} multiplies matrices with @")
        if isinstance(node, ast.Attribute):
            assert node.attr not in _BLAS, (
                f"{path.name}:{node.lineno} calls {node.attr}")


# sha256 of the nodes and weights, the one LAPACK result the package uses
# (leggauss takes eigenvalues at import); the same under four OpenBLAS
# cores and both dispatch classes
@pytest.mark.parametrize("n,digest", [
    (8, "855f29801bcd4145e700951133fc4ac89e120035760172d58bcb3cef500f85ff"),
    (16, "cfbec389e51be570a7c11d417e51ddf7452b650090e96ceae2c5a91a93020864"),
    (24, "7791a0591d54d300e533aaf08c7daeeabad514257e15ee558b0391c97bb76c8a")])
def test_leggauss_is_pinned(n, digest):
    x, w = np.polynomial.legendre.leggauss(n)
    assert hashlib.sha256(x.tobytes() + w.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("variables", [
    pytest.param({"OPENBLAS_CORETYPE": "Sandybridge"},
                 marks=pytest.mark.skipif(
                     not pins.__cpu_features__.get("AVX"),
                     reason="the Sandybridge core needs AVX"),
                 id="openblas-sandybridge"),
    pytest.param(pins.WITHOUT_X86_V4,
                 marks=pytest.mark.skipif(
                     not pins.X86_V4, reason="NumPy already runs without "
                     "X86_V4 here"),
                 id="numpy-without-x86-v4")])
def test_pins_hold_in_another_build(variables):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *PINNED], cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, **variables, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-1000:]
