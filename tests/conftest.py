"""Hypothesis profiles. Tier-1 runs the default one; ``kernel`` searches the
edit-distance kernel deeper and the same way on every run:

    python -m pytest -q tests/test_representatives.py -k Levenshtein --hypothesis-profile=kernel
"""

from hypothesis import settings

settings.register_profile("kernel", max_examples=2000, derandomize=True)
