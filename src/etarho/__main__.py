"""``python -m etarho``: the command-line interface of ``etarho.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
