import sys
from pathlib import Path

from hypothesis import settings

# allow running the suite from a source checkout without installing
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Every property draws the same examples on every run and writes no example
# database, so the suite is deterministic; each test sets only max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
