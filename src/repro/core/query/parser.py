"""Recursive-descent parser for the MALGRAPH query language.

Grammar (case-insensitive keywords)::

    query       := match_query | call_query
    match_query := MATCH pattern [WHERE bool_expr] RETURN items
                   [ORDER BY item [ASC|DESC]] [LIMIT int]
    call_query  := CALL word '(' [literal (',' literal)*] ')' [LIMIT int]
    pattern     := node (edge node)*
    node        := '(' var ['{' word ':' literal (',' ...)* '}'] ')'
    edge        := ('-'|'<-') '[' [':'] [types] [hops] ']' ('-'|'->')
    types       := type ('|' type)*
    hops        := '*' [int] ['..' [int]]
    bool_expr   := and_expr (OR and_expr)*
    and_expr    := unit (AND unit)*
    unit        := [NOT] var '.' attr (op literal | IS [NOT] NULL
                   | CONTAINS literal)
                 | '(' bool_expr ')'
    items       := item (',' item)*
    item        := COUNT '(' '*' ')' | var ['.' attr]

Every failure raises :class:`~repro.core.query.ast.QuerySyntaxError`
carrying the source offset and a caret-annotated message; semantic
failures (unbound variables, COUNT mixed with projections) raise
:class:`~repro.core.query.ast.QueryError`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.core.graph import EdgeType
from repro.core.query.ast import (
    BoolExpr,
    CallQuery,
    Comparison,
    EdgePattern,
    Literal,
    MatchQuery,
    NodePattern,
    QueryAst,
    QueryError,
    QuerySyntaxError,
    ReturnItem,
)
from repro.core.query.lexer import KEYWORDS, Token, tokenize, unescape_string

#: procedures the executor implements (checked at parse time so typos
#: fail with a caret instead of an empty result)
PROCEDURES = ("neighborhood", "shortest_path")


class Parser:
    """One-shot recursive-descent parser over a token list."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token stream helpers ---------------------------------------------
    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError(
                "unexpected end of query", self.text, len(self.text)
            )
        self.pos += 1
        return token

    def expect(self, value: str) -> Token:
        token = self.next()
        if token.value.lower() != value.lower():
            raise QuerySyntaxError(
                f"expected {value!r}, got {token.value!r}", self.text, token.pos
            )
        return token

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token is not None and token.is_word and token.lowered() == word

    def at_value(self, value: str) -> bool:
        token = self.peek()
        return token is not None and token.value == value

    # -- entry point ------------------------------------------------------
    def parse(self) -> QueryAst:
        if self.at_keyword("call"):
            return self._call_query()
        self.expect("match")
        nodes, edges = self._pattern()
        where = None
        if self.at_keyword("where"):
            self.next()
            where = self._bool_expr()
        self.expect("return")
        returns = self._return_items()
        order_by, order_desc = None, False
        if self.at_keyword("order"):
            self.next()
            self.expect("by")
            order_by = self._return_item()
            if self.at_keyword("desc"):
                self.next()
                order_desc = True
            elif self.at_keyword("asc"):
                self.next()
        limit = self._limit_clause()
        self._expect_end()
        query = MatchQuery(
            nodes=tuple(nodes),
            edges=tuple(edges),
            where=where,
            returns=tuple(returns),
            order_by=order_by,
            order_desc=order_desc,
            limit=limit,
        )
        self._check_semantics(query)
        return query

    def _expect_end(self) -> None:
        if self.peek() is not None:
            token = self.peek()
            raise QuerySyntaxError(
                f"trailing input at {token.value!r}", self.text, token.pos
            )

    def _limit_clause(self) -> Optional[int]:
        if not self.at_keyword("limit"):
            return None
        self.next()
        token = self.next()
        if token.kind != "number" or "." in token.value or "-" in token.value:
            raise QuerySyntaxError(
                f"LIMIT needs a non-negative integer, got {token.value!r}",
                self.text,
                token.pos,
            )
        return int(token.value)

    # -- CALL --------------------------------------------------------------
    def _call_query(self) -> CallQuery:
        self.expect("call")
        name = self.next()
        if not name.is_word:
            raise QuerySyntaxError(
                f"expected procedure name, got {name.value!r}", self.text, name.pos
            )
        if name.lowered() not in PROCEDURES:
            raise QuerySyntaxError(
                f"unknown procedure {name.value!r}; expected one of "
                f"{list(PROCEDURES)}",
                self.text,
                name.pos,
            )
        self.expect("(")
        args: List[Literal] = []
        if not self.at_value(")"):
            args.append(self._literal())
            while self.at_value(","):
                self.next()
                args.append(self._literal())
        self.expect(")")
        limit = self._limit_clause()
        self._expect_end()
        return CallQuery(procedure=name.lowered(), args=tuple(args), limit=limit)

    # -- pattern -----------------------------------------------------------
    def _pattern(self) -> Tuple[List[NodePattern], List[EdgePattern]]:
        nodes = [self._node()]
        edges: List[EdgePattern] = []
        seen = {nodes[0].var}
        while self.at_value("-") or (
            self.peek() is not None and self.peek().kind == "arrow"
        ):
            edges.append(self._edge())
            node = self._node()
            if node.var in seen:
                raise QueryError(
                    f"variable {node.var!r} is bound twice in the pattern"
                )
            seen.add(node.var)
            nodes.append(node)
        return nodes, edges

    def _node(self) -> NodePattern:
        self.expect("(")
        token = self.next()
        if not token.is_word or token.lowered() in KEYWORDS:
            raise QuerySyntaxError(
                f"bad variable name {token.value!r}", self.text, token.pos
            )
        props: List[Tuple[str, Literal]] = []
        if self.at_value("{"):
            self.next()
            props.append(self._prop())
            while self.at_value(","):
                self.next()
                props.append(self._prop())
            self.expect("}")
        self.expect(")")
        return NodePattern(var=token.value, props=tuple(props))

    def _prop(self) -> Tuple[str, Literal]:
        key = self.next()
        if not key.is_word:
            raise QuerySyntaxError(
                f"expected attribute name, got {key.value!r}", self.text, key.pos
            )
        self.expect(":")
        return key.value, self._literal()

    def _edge(self) -> EdgePattern:
        direction = "any"
        lead = self.next()  # "-" or "<-"
        if lead.kind == "arrow":
            if lead.value != "<-":
                raise QuerySyntaxError(
                    "edge cannot start with '->'", self.text, lead.pos
                )
            direction = "in"
        elif lead.value != "-":
            raise QuerySyntaxError(
                f"expected edge, got {lead.value!r}", self.text, lead.pos
            )
        self.expect("[")
        types = self._edge_types()
        min_hops, max_hops = self._hops()
        self.expect("]")
        tail = self.next()  # "-" or "->"
        if tail.kind == "arrow":
            if tail.value != "->":
                raise QuerySyntaxError(
                    "edge cannot end with '<-'", self.text, tail.pos
                )
            if direction == "in":
                raise QuerySyntaxError(
                    "edge cannot be directed both ways", self.text, tail.pos
                )
            direction = "out"
        elif tail.value != "-":
            raise QuerySyntaxError(
                f"expected '-' or '->' after ']', got {tail.value!r}",
                self.text,
                tail.pos,
            )
        return EdgePattern(
            types=tuple(types),
            direction=direction,
            min_hops=min_hops,
            max_hops=max_hops,
        )

    def _edge_types(self) -> List[EdgeType]:
        token = self.peek()
        if token is None or not token.is_word:
            return []
        types = [self._edge_type()]
        while self.at_value("|"):
            self.next()
            types.append(self._edge_type())
        return types

    def _edge_type(self) -> EdgeType:
        token = self.next()
        try:
            return EdgeType(token.value.lower())
        except ValueError:
            raise QuerySyntaxError(
                f"unknown edge type {token.value!r}; expected one of "
                f"{[t.value for t in EdgeType]}",
                self.text,
                token.pos,
            ) from None

    def _hops(self) -> Tuple[int, Optional[int]]:
        if not self.at_value("*"):
            return 1, 1
        star = self.next()
        lo: Optional[int] = None
        hi: Optional[int] = None
        token = self.peek()
        if token is not None and token.kind == "number":
            lo = self._hop_count(self.next())
        if self.peek() is not None and self.peek().kind == "range":
            self.next()
            token = self.peek()
            if token is not None and token.kind == "number":
                hi = self._hop_count(self.next())
        elif lo is not None:
            hi = lo  # `*n` means exactly n hops
        if lo is None and hi is None and not (
            self.peek() is not None and self.peek().value == "]"
        ):
            raise QuerySyntaxError(
                "bad hop range after '*'", self.text, star.pos
            )
        lo = 1 if lo is None else lo
        if hi is not None and hi < lo:
            raise QuerySyntaxError(
                f"hop range {lo}..{hi} is empty", self.text, star.pos
            )
        return lo, hi

    def _hop_count(self, token: Token) -> int:
        if "." in token.value or "-" in token.value:
            raise QuerySyntaxError(
                f"hop counts must be positive integers, got {token.value!r}",
                self.text,
                token.pos,
            )
        count = int(token.value)
        if count < 1:
            raise QuerySyntaxError(
                "hop counts must be >= 1", self.text, token.pos
            )
        return count

    # -- WHERE -------------------------------------------------------------
    def _bool_expr(self) -> BoolExpr:
        parts: List[Union[BoolExpr, Comparison]] = [self._and_expr()]
        while self.at_keyword("or"):
            self.next()
            parts.append(self._and_expr())
        if len(parts) == 1 and isinstance(parts[0], BoolExpr):
            return parts[0]
        return BoolExpr(op="or", parts=tuple(parts))

    def _and_expr(self) -> BoolExpr:
        parts: List[Union[BoolExpr, Comparison]] = [self._unit()]
        while self.at_keyword("and"):
            self.next()
            parts.append(self._unit())
        return BoolExpr(op="and", parts=tuple(parts))

    def _unit(self) -> Union[BoolExpr, Comparison]:
        if self.at_value("("):
            self.next()
            inner = self._bool_expr()
            self.expect(")")
            return inner
        return self._comparison()

    def _comparison(self) -> Comparison:
        negated = False
        if self.at_keyword("not"):
            self.next()
            negated = True
        var = self.next()
        if not var.is_word:
            raise QuerySyntaxError(
                f"expected variable, got {var.value!r}", self.text, var.pos
            )
        self.expect(".")
        attr = self.next()
        if not attr.is_word:
            raise QuerySyntaxError(
                f"expected attribute, got {attr.value!r}", self.text, attr.pos
            )
        op_token = self.next()
        if op_token.is_word and op_token.lowered() == "is":
            if self.at_keyword("not"):
                self.next()
                negated = not negated
            self.expect("null")
            return Comparison(
                var=var.value, attr=attr.value, op="is-null", negated=negated
            )
        if op_token.is_word and op_token.lowered() == "contains":
            op = "contains"
        elif op_token.kind == "op":
            op = op_token.value
        else:
            raise QuerySyntaxError(
                f"expected comparison operator, got {op_token.value!r}",
                self.text,
                op_token.pos,
            )
        literal = self._literal()
        return Comparison(
            var=var.value, attr=attr.value, op=op, literal=literal, negated=negated
        )

    def _literal(self) -> Literal:
        token = self.next()
        if token.kind == "string":
            return unescape_string(token.value)
        if token.kind == "number":
            return float(token.value) if "." in token.value else int(token.value)
        raise QuerySyntaxError(
            f"expected literal, got {token.value!r}", self.text, token.pos
        )

    # -- RETURN ------------------------------------------------------------
    def _return_items(self) -> List[ReturnItem]:
        items = [self._return_item()]
        while self.at_value(","):
            self.next()
            items.append(self._return_item())
        return items

    def _return_item(self) -> ReturnItem:
        token = self.next()
        if token.is_word and token.lowered() == "count":
            self.expect("(")
            self.expect("*")
            self.expect(")")
            return ReturnItem(var=None, attr=None, is_count=True)
        if not token.is_word:
            raise QuerySyntaxError(
                f"bad return item {token.value!r}", self.text, token.pos
            )
        var = token.value
        if self.at_value("."):
            self.next()
            attr = self.next()
            if not attr.is_word:
                raise QuerySyntaxError(
                    f"bad attribute {attr.value!r}", self.text, attr.pos
                )
            return ReturnItem(var=var, attr=attr.value)
        return ReturnItem(var=var, attr=None)

    # -- semantic checks -----------------------------------------------------
    def _check_semantics(self, query: MatchQuery) -> None:
        known = set(query.variables)
        used = query.where.vars_used() if query.where else set()
        for item in list(query.returns) + (
            [query.order_by] if query.order_by else []
        ):
            if item is not None and not item.is_count:
                used.add(item.var)
        unknown = used - known
        if unknown:
            raise QueryError(
                f"unbound variable(s) {sorted(unknown)}; bound: {sorted(known)}"
            )
        if any(item.is_count for item in query.returns) and len(query.returns) != 1:
            raise QueryError("COUNT(*) cannot be mixed with other projections")


def parse(query_text: str) -> QueryAst:
    """Parse query text into a :class:`MatchQuery` or :class:`CallQuery`."""
    return Parser(query_text).parse()
