"""``python3 -m perfbench`` is ``python3 perfbench/run.py``."""

import sys

from perfbench.run import main

sys.exit(main())
