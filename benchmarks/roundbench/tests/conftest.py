"""roundbench self-tests (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/roundbench/tests -q
"""

import pathlib
import sys

ROUNDBENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROUNDBENCH))
