"""Reading and writing the plain-text group format.

A group file contains a header line ``degree: n`` followed by one
generator per line in 1-based disjoint-cycle notation, for example
``(1 2)(3 4)``.  Blank lines are skipped and ``#`` starts a comment
that runs to the end of the line.  Parse errors carry 1-based line and
column positions.

Parsing is memoized: each file text and name gives one shared
PermutationGroup for the life of the process, so a repeated job on the
same file enumerates the group and computes its classes once.
"""

from functools import lru_cache
from pathlib import Path

from .errors import GroupFileError
from .perms import format_perm, identity
from .permgroup import PermutationGroup


def parse_perm(text, degree, line_no=None):
    """Parse one permutation in cycle notation, e.g. ``(1 3 2)(4 5)``.

    ``()`` denotes the identity.  Points are 1-based decimals and must
    not repeat across cycles.
    """
    images = list(identity(degree))
    used = set()
    pos = 0
    n = len(text)
    saw_cycle = False

    def err(msg, col):
        raise GroupFileError(msg, line=line_no, column=col + 1)

    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            err(f"expected '(' but found {ch!r}", pos)
        close = text.find(")", pos)
        if close < 0:
            err("unclosed cycle", pos)
        body = text[pos + 1 : close]
        points = []
        col = pos + 1
        for token in body.split():
            if not token.isdigit():
                err(f"expected a point number, found {token!r}", text.find(token, col))
            value = int(token)
            if not 1 <= value <= degree:
                err(f"point {value} outside 1..{degree}", text.find(token, col))
            pt = value - 1
            if pt in used:
                err(f"point {value} appears twice", text.find(token, col))
            used.add(pt)
            points.append(pt)
            col = text.find(token, col) + len(token)
        for i, pt in enumerate(points):
            images[pt] = points[(i + 1) % len(points)]
        saw_cycle = True
        pos = close + 1
    if not saw_cycle:
        err("empty permutation (write '()' for the identity)", 0)
    return tuple(images)


@lru_cache(maxsize=None)
def parse_group_text(text, name=None):
    """Parse a whole group file into a PermutationGroup.

    Cached per (text, name), so the name must be hashable: calls with
    the same text and name, passed the same way (``lru_cache`` keys a
    keyword apart from a position), return the one shared group, which
    is immutable.  Errors are not cached: a malformed text raises
    GroupFileError on every call."""
    degree = None
    generators = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if degree is None:
            if not stripped.startswith("degree:"):
                raise GroupFileError(
                    "first entry must be 'degree: n'", line=line_no, column=1
                )
            value = stripped[len("degree:") :].strip()
            if not value.isdigit() or int(value) < 1:
                raise GroupFileError(
                    f"bad degree {value!r}", line=line_no, column=len("degree:") + 1
                )
            degree = int(value)
            continue
        generators.append(parse_perm(line, degree, line_no=line_no))
    if degree is None:
        raise GroupFileError("missing 'degree: n' header", line=1, column=1)
    return PermutationGroup(degree, generators, name=name)


def parse_group_file(path, name=None):
    """Parse the group file at ``path``, named by its stem unless
    ``name`` (hashable) is given.

    The file is read on every call; the same content under the same
    name returns the one shared, immutable group (``parse_group_text``)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GroupFileError(f"cannot read group file {path}: {exc.strerror}")
    if name is None:
        name = Path(path).stem
    return parse_group_text(text, name=name)


def format_group_text(G, comment=None):
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}")
    lines.append(f"degree: {G.degree}")
    for g in G.generators:
        lines.append(format_perm(g))
    return "\n".join(lines) + "\n"
