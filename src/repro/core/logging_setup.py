"""CLI logging configuration, shared by every ``python -m repro`` entry.

All CLI output flows through ``logging`` (the library never calls
``print()`` — repro-lint enforces that); this module owns the one
handler that makes that pleasant both interactively and under pytest's
capture.  It lives in ``repro.core`` so subcommand packages on any layer
(``repro.check``, ``repro.store``, ``repro.bench``) can configure
logging without importing the CLI root above them.
"""

from __future__ import annotations

import logging
import sys


class _StdoutHandler(logging.StreamHandler):
    """A StreamHandler that always writes to the *current* sys.stdout.

    Capturing harnesses (pytest's capsys) swap sys.stdout per test; a
    handler holding the stream it was created with would keep writing to
    a dead buffer.  Resolving the stream at emit time keeps "configure
    logging once" true even under capture.
    """

    def __init__(self) -> None:
        super().__init__(stream=sys.stdout)

    @property
    def stream(self):  # type: ignore[override]
        return sys.stdout

    @stream.setter
    def stream(self, value) -> None:  # the base __init__ assigns; ignore it
        pass


def configure_logging(verbose: bool = False) -> None:
    """Configure the ``repro`` logging tree exactly once per process."""
    root = logging.getLogger("repro")
    if not any(isinstance(h, _StdoutHandler) for h in root.handlers):
        root.addHandler(_StdoutHandler())
        root.propagate = False
    for handler in root.handlers:
        if isinstance(handler, _StdoutHandler):
            handler.setFormatter(
                logging.Formatter("%(name)s %(levelname)s %(message)s" if verbose else "%(message)s")
            )
    root.setLevel(logging.DEBUG if verbose else logging.INFO)


__all__ = ["configure_logging"]
