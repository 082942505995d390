import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Property tests draw the same examples on every run, without per-test settings.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
