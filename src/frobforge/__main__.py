"""``python -m frobforge``: the command-line interface of ``frobforge.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
