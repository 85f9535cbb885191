import sys
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# allow running the suite from a source checkout without installing
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Every property draws the same examples on every run and writes no example
# database, so the suite is deterministic; each test sets only max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
# Hypothesis's pytest plugin writes its cache while collecting, before any
# fixture runs, so it is pointed outside the checkout when this file loads.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "miniaffect-hypothesis")
