"""Hypothesis profiles. Tier-1 runs the default one; ``kernel`` searches two
properties deeper and the same way on every run, the edit-distance kernel
and the lazy word-vectors loader against the eager reference:

    python -m pytest -q tests/test_representatives.py -k Levenshtein --hypothesis-profile=kernel
    python -m pytest -q tests/test_embeddings.py -k lazy_loader --hypothesis-profile=kernel
"""

from hypothesis import settings

settings.register_profile("kernel", max_examples=2000, derandomize=True)
