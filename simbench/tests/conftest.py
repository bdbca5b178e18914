import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[2]
for path in (CHECKOUT / "src", CHECKOUT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
