"""`python -m qvn`: the `qvn` command line, for a source checkout without
an installed entry point."""

import sys

from .cli import main

sys.exit(main())
