"""``python -m motionlift``: the command-line interface, as the ``motionlift`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
