"""python -m peterweyl: the command-line interface of peterweyl.cli."""

import sys

from .cli import main

sys.exit(main())
