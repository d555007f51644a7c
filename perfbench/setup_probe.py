"""Print the set-up time of this fresh interpreter: import triprod, load the
built-in suite and parse every line, as every CLI invocation does before its
first verdict.  Interpreter start-up itself is not counted."""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

t0 = time.perf_counter()
sys.path.insert(0, SRC)
import triprod  # noqa: E402

for line in triprod.builtin_lines(8):
    triprod.parse(line)
print(time.perf_counter() - t0)
