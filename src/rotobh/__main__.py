"""``python -m rotobh``: the rotobh command."""

import sys

from .cli import main

sys.exit(main())
