"""python -m slipdisk: the command line verbs of slipdisk.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
