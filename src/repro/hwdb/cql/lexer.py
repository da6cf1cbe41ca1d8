"""Tokenizer for the hwdb CQL variant.

hwdb "supports queries via a CQL variant able to express temporal and
relational operations on data" — SELECT with per-stream windows
(``[RANGE 5 SECONDS]``, ``[ROWS 100]``, ``[NOW]``, ``[SINCE t]``),
joins, aggregation, plus INSERT/CREATE for completeness.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ...core.errors import QueryError

KEYWORDS = {
    "select",
    "distinct",
    "from",
    "where",
    "group",
    "by",
    "having",
    "order",
    "asc",
    "desc",
    "limit",
    "as",
    "and",
    "or",
    "not",
    "in",
    "like",
    "is",
    "null",
    "true",
    "false",
    "insert",
    "into",
    "values",
    "create",
    "table",
    "buffer",
    "range",
    "rows",
    "now",
    "since",
    "seconds",
    "second",
    "minutes",
    "minute",
    "hours",
    "hour",
    "milliseconds",
    "millisecond",
    "on",
    "explain",
    "analyze",
}

# Multi-char operators first so they win the scan.
OPERATORS = ["<=", ">=", "!=", "<>", "=", "<", ">", "+", "-", "*", "/", "%"]
PUNCTUATION = "(),[].;"


class Token(NamedTuple):
    kind: str  # 'keyword' | 'ident' | 'number' | 'string' | 'op' | 'punct' | 'eof'
    value: str
    position: int


def tokenize(text: str) -> List[Token]:
    """Produce the token stream, raising :class:`QueryError` on bad input."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":  # comment to EOL
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and text[i + 1].isdigit()
        ):
            start = i
            seen_dot = False
            while i < n and (text[i].isdigit() or (text[i] == "." and not seen_dot)):
                if text[i] == ".":
                    # Don't swallow a dot followed by a letter (qualified name).
                    if i + 1 < n and not text[i + 1].isdigit():
                        break
                    seen_dot = True
                i += 1
            # Scientific notation ('2.5e-05'): repr() of a small float
            # emits it, so unparse output must lex back.
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    while j < n and text[j].isdigit():
                        j += 1
                    i = j
            tokens.append(Token("number", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "keyword" if word.lower() in KEYWORDS else "ident"
            tokens.append(Token(kind, word.lower() if kind == "keyword" else word, start))
            continue
        if ch in ("'", '"'):
            quote = ch
            start = i
            i += 1
            chunks = []
            while i < n:
                if text[i] == quote:
                    if i + 1 < n and text[i + 1] == quote:  # doubled quote escape
                        chunks.append(quote)
                        i += 2
                        continue
                    break
                chunks.append(text[i])
                i += 1
            if i >= n:
                raise QueryError(f"unterminated string at position {start}")
            i += 1
            tokens.append(Token("string", "".join(chunks), start))
            continue
        matched_op: Optional[str] = None
        for op in OPERATORS:
            if text.startswith(op, i):
                matched_op = op
                break
        if matched_op is not None:
            tokens.append(Token("op", matched_op, i))
            i += len(matched_op)
            continue
        if ch in PUNCTUATION:
            tokens.append(Token("punct", ch, i))
            i += 1
            continue
        raise QueryError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token("eof", "", n))
    return tokens


class TokenStream:
    """Cursor over the token list with the usual peek/expect helpers."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        index = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self._pos += 1
        return token

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token.kind == kind and (value is None or token.value == value):
            return self.next()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            actual = self.peek()
            want = value if value is not None else kind
            raise QueryError(
                f"expected {want!r} at position {actual.position}, "
                f"got {actual.value!r}"
            )
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "keyword" and token.value in words

    def eof(self) -> bool:
        return self.peek().kind == "eof"
