import sys
from pathlib import Path

# The benchmark imports recallsearch from this tree's sources, not an install.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
