"""Minimal SMT-LIB2 s-expression reading."""

from __future__ import annotations


class SexprError(Exception):
    pass


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
            yield text[i: j + 1]
            i = j + 1
            continue
        if c == "|":
            j = text.index("|", i + 1)
            yield text[i: j + 1]
            i = j + 1
            continue
        j = i
        while j < n and text[j] not in " \t\r\n();\"|":
            j += 1
        yield text[i:j]
        i = j


def parse_all(text: str) -> list:
    """Parse every complete s-expression in the text."""
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
        raise SexprError("unbalanced '('")
    return out


def balanced(text: str) -> bool:
    depth = 0
    in_string = False
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if in_string:
            if c == '"':
                in_string = False
            i += 1
            continue
        if c == '"':
            in_string = True
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                return True  # malformed; let the parser raise
        i += 1
    return depth == 0 and not in_string
