"""``python -m mdim``: the ``mdim`` command line."""

from .cli import entry

entry()
