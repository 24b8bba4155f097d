"""Importing the package sets glibc's heap policy for every caller, not only
for the CLI."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphkd

# mallinfo2's fields, all size_t (malloc.h); hblkhd is the mmapped bytes
MALLINFO2_FIELDS = ("arena", "ordblks", "smblks", "hblks", "hblkhd",
                    "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")

MMAPPED_GROWTH = f"""
import ctypes

import graphkd
import numpy

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in {MALLINFO2_FIELDS!r}]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes = ()
mallinfo2.restype = Mallinfo2
before = mallinfo2().hblkhd
block = numpy.empty(1 << 20, dtype=numpy.uint8)
print(mallinfo2().hblkhd - before)
"""


HAS_MALLINFO2 = sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallinfo2")


@pytest.mark.skipif(not HAS_MALLINFO2, reason="needs glibc's mallinfo2")
def test_a_1_mib_array_stays_on_the_heap_after_import():
    # a fresh interpreter, with no malloc setting from the environment, so the
    # policy can come from nowhere but the import
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(graphkd.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", MMAPPED_GROWTH],
                          capture_output=True, text=True, env=env, check=True)
    assert int(proc.stdout) == 0
