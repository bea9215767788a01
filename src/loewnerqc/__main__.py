"""``python -m loewnerqc <command> ...``: the ``loewnerqc`` command line."""

import sys

from .cli import main

sys.exit(main())
