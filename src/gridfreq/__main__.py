"""``python -m gridfreq``: the ``gridfreq`` command line."""

from .cli import entry

entry()
