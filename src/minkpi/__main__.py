"""``python -m minkpi``: the same command line as the ``minkpi`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
