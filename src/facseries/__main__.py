"""``python -m facseries``: the command-line front end of facseries.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
