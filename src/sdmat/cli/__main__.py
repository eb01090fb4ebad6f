"""``python -m sdmat.cli``: the command-line interface."""

from . import main

main()
