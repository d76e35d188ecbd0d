"""Entry point for ``python -m chainlat``; same commands as the ``chainlat`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
