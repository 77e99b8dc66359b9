"""Command-line entry point: python -m entbounds <command> ..."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
