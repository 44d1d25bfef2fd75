"""Print, as Markdown, the OpenBLAS kernel and thread count that numpy runs with.

OpenBLAS picks its kernel by CPU, and the trained bits depend on the kernel
(docs/FORMATS.md, "Determinism"), so a CI job writes this to its summary to
name the kernel it ran under. What it cannot find reads "unknown".

Run:  python .github/blas_kernel.py >> "$GITHUB_STEP_SUMMARY"
"""

import ctypes
import sys

import numpy  # noqa: F401  (loads its BLAS library into this process)


def call(lib, symbols, restype):
    """The result of the first of ``symbols`` that ``lib`` exports, or None."""
    for symbol in symbols:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


kernel = threads = "unknown"
try:
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
except OSError:
    libs = []
for path in libs:
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        continue
    name = call(lib, ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                      "openblas_get_corename"), ctypes.c_char_p)
    count = call(lib, ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"), ctypes.c_int)
    if name:
        kernel = name.decode("ascii", "replace")
    if count is not None:
        threads = str(count)

print(f"### OpenBLAS (Python {sys.version_info.major}.{sys.version_info.minor})")
print(f"kernel `{kernel}`, threads {threads}")
