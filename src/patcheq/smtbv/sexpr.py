"""Minimal SMT-LIB2 s-expression reading.

``parse_all`` is the one reader at both ends of the solver pipe.  The solver,
reading commands, and the client, reading replies, each hand it the lines
read so far and read on while it raises ``Incomplete``: a string or a ``(``
still open at the end of the text.  Any other ``SexprError`` is malformed
text that no further line can mend.
"""

from __future__ import annotations


class SexprError(Exception):
    pass


class Incomplete(SexprError):
    """The text ends inside a string or an s-expression; more may complete it."""


def tokenize(text: str):
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "()":
            yield c
            i += 1
            continue
        if c == '"':
            j = i + 1
            while j < n:
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        j += 2
                        continue
                    break
                j += 1
            if j >= n:
                raise Incomplete("unterminated string")
            yield text[i: j + 1]
            i = j + 1
            continue
        j = i
        while j < n and text[j] not in " \t\r\n();\"":
            j += 1
        yield text[i:j]
        i = j


def parse_all(text: str) -> list:
    """Parse every s-expression in the text; the text must end outside all of them."""
    stack: list[list] = []
    out: list = []
    for tok in tokenize(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise SexprError("unbalanced ')'")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                out.append(done)
        else:
            if stack:
                stack[-1].append(tok)
            else:
                out.append(tok)
    if stack:
        raise Incomplete("unbalanced '('")
    return out
