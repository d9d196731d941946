import sys
from pathlib import Path

# The benchmark's modules live in bench/, next to this directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
