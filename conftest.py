"""Loaded by pytest before any test module: the test run writes no bytecode
caches into the checkout, nor do the subprocesses that tests start."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
