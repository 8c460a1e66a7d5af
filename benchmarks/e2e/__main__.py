"""``python -m benchmarks.e2e [run|compare] ...`` is ``run.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import main  # noqa: E402

sys.exit(main())
