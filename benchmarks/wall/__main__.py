"""``python -m benchmarks.wall``: the same entry point as ``run.py``."""

import sys
from pathlib import Path

# run.py and worker.py import their sibling modules as top-level scripts do
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import main  # noqa: E402

sys.exit(main())
