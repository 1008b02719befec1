import os
import sys

# The shared oracles (tests/helpers.py) and the package under src/, so that
# `python -m pytest` runs from a checkout without PYTHONPATH.
HERE = os.path.dirname(__file__)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
