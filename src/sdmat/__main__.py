"""``python -m sdmat``: the command-line interface."""

from .cli import main

main()
