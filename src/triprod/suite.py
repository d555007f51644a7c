"""The built-in identity suite shipped with the package."""

from __future__ import annotations

import os

# Facts that only hold in associative dimensions; appended to the suite when
# dim <= 4 so a quaternion run reports the stronger statements directly.
ASSOCIATIVE_EXTRAS = (
    "(u1*u2)*u3 == u1*(u2*u3)",
    "assoc(u1,u2,u3) == 0*i0",
)


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, identity) for each identity line of file text:
    one per line, '#' comments and blank lines skipped."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    return lines


def builtin_lines(dim: int = 8) -> list[str]:
    """All built-in identities, plus the associative extras when dim <= 4."""
    # The module's own loader, as pkgutil.get_data does, without importing
    # pkgutil (which loads `typing`) or importlib.resources (which loads
    # `inspect` from Python 3.12 on).
    path = os.path.join(os.path.dirname(__file__), "data", "suite.txt")
    text = __loader__.get_data(path).decode("utf-8")
    lines = [line for _, line in numbered_lines(text)]
    if dim <= 4:
        lines.extend(ASSOCIATIVE_EXTRAS)
    return lines
