"""Times one ``scipy.linalg.eigh`` of a saved matrix and prints the seconds.

``run.py`` starts this in fresh interpreters with every BLAS thread
variable set to 1, for the single-threaded eigensolver baseline.
"""

import sys
import time

import numpy
from scipy.linalg import eigh

matrix = numpy.load(sys.argv[1])
start = time.perf_counter()
eigh(matrix)
print(time.perf_counter() - start)
