"""``python -m reboost.cli``: the ``reboost`` command without the installed
console script, e.g. from a checkout with ``PYTHONPATH=src``."""

import sys

from reboost.cli import main

if __name__ == "__main__":
    sys.exit(main())
