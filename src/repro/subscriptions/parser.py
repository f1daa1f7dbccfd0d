"""Text parser for the subscription language.

Grammar (lowest to highest precedence; ``or`` binds weakest)::

    expression  := and_expr ( OR  and_expr )*
    and_expr    := unary    ( AND unary    )*
    unary       := NOT unary | '(' expression ')' | predicate
    predicate   := ident cmp_op value
                 | ident 'between' '[' value ',' value ']'
                 | ident 'in' '{' value ( ',' value )* '}'
                 | ident ('prefix'|'suffix'|'contains') string
                 | 'exists' '(' ident ')'
    cmp_op      := '=' | '==' | '!=' | '<>' | '<' | '<=' | '>' | '>='
    value       := number | string | 'true' | 'false'

Operator aliases: ``and``/``&``/``&&``, ``or``/``|``/``||``,
``not``/``!``.  Keywords are case-insensitive; attribute names are
case-sensitive identifiers (letters, digits, ``_``, ``.``, ``-`` after the
first character).

Example
-------
>>> parse("(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)")
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from ..predicates.operators import Operator
from ..predicates.predicate import Predicate
from .ast import And, BooleanExpression, Not, Or, PredicateLeaf


class SubscriptionSyntaxError(ValueError):
    """Raised on malformed subscription text, with position information."""

    def __init__(self, message: str, position: int, text: str) -> None:
        pointer = text[:position].count("\n")
        super().__init__(
            f"{message} (at offset {position}): "
            f"...{text[position:position + 20]!r}"
        )
        self.position = position
        self.line = pointer + 1


@dataclass(frozen=True)
class _Token:
    kind: str      # 'ident', 'number', 'string', 'symbol', 'keyword', 'eof'
    value: Any
    position: int


_KEYWORDS = {
    "and",
    "or",
    "not",
    "between",
    "in",
    "exists",
    "prefix",
    "suffix",
    "contains",
    "true",
    "false",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
  | (?P<symbol><=|>=|==|!=|<>|&&|\|\||[=<>()\[\]{},&|!])
    """,
    re.VERBOSE,
)

_SYMBOL_KEYWORDS = {"&": "and", "&&": "and", "|": "or", "||": "or", "!": "not"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise SubscriptionSyntaxError("unexpected character", position, text)
        position = match.end()
        if match.lastgroup == "ws":
            continue
        raw = match.group()
        if match.lastgroup == "number":
            value = float(raw) if "." in raw else int(raw)
            tokens.append(_Token("number", value, match.start()))
        elif match.lastgroup == "string":
            body = raw[1:-1]
            unescaped = re.sub(r"\\(.)", r"\1", body)
            tokens.append(_Token("string", unescaped, match.start()))
        elif match.lastgroup == "ident":
            lowered = raw.lower()
            if lowered in _KEYWORDS:
                tokens.append(_Token("keyword", lowered, match.start()))
            else:
                tokens.append(_Token("ident", raw, match.start()))
        else:
            symbol = _SYMBOL_KEYWORDS.get(raw)
            if symbol is not None:
                tokens.append(_Token("keyword", symbol, match.start()))
            else:
                tokens.append(_Token("symbol", raw, match.start()))
    tokens.append(_Token("eof", None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0

    # -- token helpers -----------------------------------------------------
    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str, value: Any = None) -> _Token:
        token = self._peek()
        if token.kind != kind or (value is not None and token.value != value):
            wanted = value if value is not None else kind
            raise SubscriptionSyntaxError(
                f"expected {wanted!r}, found {token.value!r}",
                token.position,
                self._text,
            )
        return self._advance()

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token.kind == "keyword" and token.value == word

    # -- grammar -----------------------------------------------------------
    def parse(self) -> BooleanExpression:
        expression = self._or_expr()
        trailing = self._peek()
        if trailing.kind != "eof":
            raise SubscriptionSyntaxError(
                f"unexpected trailing input {trailing.value!r}",
                trailing.position,
                self._text,
            )
        return expression

    def _or_expr(self) -> BooleanExpression:
        operands = [self._and_expr()]
        while self._at_keyword("or"):
            self._advance()
            operands.append(self._and_expr())
        return operands[0] if len(operands) == 1 else Or(tuple(operands))

    def _and_expr(self) -> BooleanExpression:
        operands = [self._unary()]
        while self._at_keyword("and"):
            self._advance()
            operands.append(self._unary())
        return operands[0] if len(operands) == 1 else And(tuple(operands))

    def _unary(self) -> BooleanExpression:
        if self._at_keyword("not"):
            self._advance()
            return Not(self._unary())
        token = self._peek()
        if token.kind == "symbol" and token.value == "(":
            self._advance()
            inner = self._or_expr()
            self._expect("symbol", ")")
            return inner
        if self._at_keyword("exists"):
            return self._exists_predicate()
        return self._predicate()

    def _exists_predicate(self) -> PredicateLeaf:
        self._expect("keyword", "exists")
        self._expect("symbol", "(")
        attribute = self._expect("ident").value
        self._expect("symbol", ")")
        return PredicateLeaf(Predicate(attribute, Operator.EXISTS))

    def _predicate(self) -> PredicateLeaf:
        attribute_token = self._peek()
        if attribute_token.kind != "ident":
            raise SubscriptionSyntaxError(
                f"expected an attribute name, found {attribute_token.value!r}",
                attribute_token.position,
                self._text,
            )
        attribute = self._advance().value
        token = self._peek()
        if token.kind == "keyword" and token.value == "between":
            self._advance()
            self._expect("symbol", "[")
            low = self._value()
            self._expect("symbol", ",")
            high = self._value()
            self._expect("symbol", "]")
            return PredicateLeaf(Predicate(attribute, Operator.BETWEEN, (low, high)))
        if token.kind == "keyword" and token.value == "in":
            self._advance()
            self._expect("symbol", "{")
            alternatives = [self._value()]
            while self._peek().kind == "symbol" and self._peek().value == ",":
                self._advance()
                alternatives.append(self._value())
            self._expect("symbol", "}")
            return PredicateLeaf(Predicate(attribute, Operator.IN, alternatives))
        if token.kind == "keyword" and token.value in ("prefix", "suffix", "contains"):
            self._advance()
            operand = self._expect("string").value
            operator = Operator(token.value)
            return PredicateLeaf(Predicate(attribute, operator, operand))
        if token.kind == "symbol" and token.value in (
            "=", "==", "!=", "<>", "<", "<=", ">", ">="
        ):
            self._advance()
            operator = Operator.from_symbol(token.value)
            return PredicateLeaf(Predicate(attribute, operator, self._value()))
        raise SubscriptionSyntaxError(
            f"expected a comparison operator after {attribute!r}",
            token.position,
            self._text,
        )

    def _value(self) -> Any:
        token = self._peek()
        if token.kind in ("number", "string"):
            return self._advance().value
        if token.kind == "keyword" and token.value in ("true", "false"):
            self._advance()
            return token.value == "true"
        raise SubscriptionSyntaxError(
            f"expected a value, found {token.value!r}", token.position, self._text
        )


def parse(text: str) -> BooleanExpression:
    """Parse subscription text into a :class:`BooleanExpression`.

    Raises
    ------
    SubscriptionSyntaxError
        On malformed input, with the offending offset, and on nesting
        deeper than the interpreter's recursion limit allows.
    TypeError
        When ``text`` is neither a string nor ``None``.
    """
    if text is not None and not isinstance(text, str):
        raise TypeError(f"subscription text must be a str, not {type(text).__name__}")
    if not text or not text.strip():
        raise SubscriptionSyntaxError("empty subscription", 0, text or "")
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise SubscriptionSyntaxError(
            "expression nested too deeply", 0, text
        ) from None
