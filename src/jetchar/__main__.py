"""``python -m jetchar``: the command line of :mod:`jetchar.cli`."""
import sys

from .cli import main

sys.exit(main())
