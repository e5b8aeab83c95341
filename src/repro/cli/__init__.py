"""The ``python -m repro`` commands, one module each.

:mod:`repro.__main__` lists every command and imports only the one a
call names. Each module here defines ``add_arguments(parser)``, which
adds the command's arguments to its sub-parser, and ``run(args)``, its
handler, which returns the exit code or raises ``Refusal``.
:mod:`repro.cli.common` holds the argument specs and helpers that more
than one command shares.
"""


class Refusal(Exception):
    """A command's refusal: ``main`` prints the message, one finished
    stderr line, and returns ``code``."""

    def __init__(self, line: str, code: int = 2):
        super().__init__(line)
        self.code = code
