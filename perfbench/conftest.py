"""Benchmark tests import the program from the checkout's ``src``."""

import sys

from perfbench.common import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
