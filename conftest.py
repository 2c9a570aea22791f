"""Pin BLAS to one thread for the test session, as ``perfbench/run.py`` does.

OpenBLAS reads these variables once, when numpy loads it, and an unpinned
OpenBLAS keeps a thread pool. With one thread in the process,
``run_experiment`` and ``run_noise_study`` fork their worker, so every
in-process looping run and every noise study of two or more seeds takes the
path the benchmark measures.
"""
import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before conftest.py could pin BLAS to one thread")
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
