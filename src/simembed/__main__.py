"""``python -m simembed``: the same command line as the ``simembed`` script."""

from .cli import main

main()
