"""AST for the MALGRAPH query language.

Every node is a frozen dataclass, so parsed queries are hashable,
comparable and safe to cache. :func:`render` turns any AST back into
canonical query text; the parser and renderer are exact inverses over
canonical form (``parse(render(ast)) == ast``), which the property
tests exercise.

Two query shapes exist:

* :class:`MatchQuery` — ``MATCH <pattern> [WHERE ...] RETURN ...
  [ORDER BY ...] [LIMIT n]`` over a chain of node patterns joined by
  typed, optionally directed, optionally variable-length edge patterns;
* :class:`CallQuery` — ``CALL <procedure>(args...) [LIMIT n]`` for the
  built-in graph procedures (``shortest_path``, ``neighborhood``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.graph import EdgeType
from repro.errors import ReproError

#: literal values the language knows: strings, ints, floats
Literal = Union[str, int, float]


class QueryError(ReproError):
    """Raised for malformed or unsupported queries."""


class QuerySyntaxError(QueryError):
    """A parse failure, carrying the offending offset in the source text.

    The rendered message includes the source line and a caret pointing
    at the offset, so CLI and HTTP consumers can show precise errors.
    """

    def __init__(self, message: str, text: str, offset: int):
        self.reason = message
        self.text = text
        self.offset = max(0, min(offset, len(text)))
        caret = " " * self.offset + "^"
        super().__init__(
            f"{message} at offset {self.offset}\n  {text}\n  {caret}"
        )


def render_literal(value: Literal) -> str:
    """A literal as query text (strings quoted, quotes escaped)."""
    if isinstance(value, str):
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    return repr(value)


# ---------------------------------------------------------------------------
# Pattern
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodePattern:
    """``(var)`` or ``(var {attr: literal, ...})``."""

    var: str
    props: Tuple[Tuple[str, Literal], ...] = ()

    def matches(self, attrs: Dict[str, Any]) -> bool:
        return all(attrs.get(key) == value for key, value in self.props)

    def render(self) -> str:
        if not self.props:
            return f"({self.var})"
        inner = ", ".join(
            f"{key}: {render_literal(value)}" for key, value in self.props
        )
        return f"({self.var} {{{inner}}})"


@dataclass(frozen=True)
class EdgePattern:
    """One hop specification between two adjacent node patterns.

    ``types`` is the allowed edge-type set (empty = any type),
    ``direction`` is ``"any"`` (``-[..]-``), ``"out"`` (``-[..]->``) or
    ``"in"`` (``<-[..]-``), and ``min_hops``/``max_hops`` carry the
    ``*lo..hi`` variable-length range (``max_hops=None`` = unbounded).
    A plain single hop is ``min_hops == max_hops == 1``.
    """

    types: Tuple[EdgeType, ...] = ()
    direction: str = "any"  # "any" | "out" | "in"
    min_hops: int = 1
    max_hops: Optional[int] = 1

    @property
    def is_variable(self) -> bool:
        return not (self.min_hops == 1 and self.max_hops == 1)

    def render(self) -> str:
        inner = "|".join(t.value for t in self.types)
        if self.is_variable:
            if self.min_hops == 1 and self.max_hops is None:
                hops = "*"
            elif self.max_hops is None:
                hops = f"*{self.min_hops}.."
            elif self.min_hops == self.max_hops:
                hops = f"*{self.min_hops}"
            else:
                hops = f"*{self.min_hops}..{self.max_hops}"
            inner += hops
        left = "<-" if self.direction == "in" else "-"
        right = "->" if self.direction == "out" else "-"
        return f"{left}[{inner}]{right}"


# ---------------------------------------------------------------------------
# WHERE expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    """``[NOT] var.attr OP literal`` or ``var.attr IS [NOT] NULL``."""

    var: str
    attr: str
    op: str  # "=", "!=", "<", "<=", ">", ">=", "contains", "is-null"
    literal: Optional[Literal] = None
    negated: bool = False

    def evaluate(self, attrs: Dict[str, Any]) -> bool:
        return self._base(attrs) != self.negated

    def _base(self, attrs: Dict[str, Any]) -> bool:
        value = attrs.get(self.attr)
        if self.op == "is-null":
            return value is None
        if self.op == "contains":
            return isinstance(value, str) and str(self.literal) in value
        if value is None:
            return False
        if self.op == "=":
            return value == self.literal
        if self.op == "!=":
            return value != self.literal
        try:
            if self.op == "<":
                return value < self.literal
            if self.op == "<=":
                return value <= self.literal
            if self.op == ">":
                return value > self.literal
            if self.op == ">=":
                return value >= self.literal
        except TypeError:
            return False
        raise QueryError(f"unknown operator {self.op!r}")  # pragma: no cover

    def render(self) -> str:
        if self.op == "is-null":
            verb = "IS NOT NULL" if self.negated else "IS NULL"
            return f"{self.var}.{self.attr} {verb}"
        op = "CONTAINS" if self.op == "contains" else self.op
        text = f"{self.var}.{self.attr} {op} {render_literal(self.literal)}"
        return f"NOT {text}" if self.negated else text


@dataclass(frozen=True)
class BoolExpr:
    """AND/OR tree over comparisons (AND binds tighter than OR)."""

    op: str  # "and" | "or"
    parts: Tuple[Union["BoolExpr", Comparison], ...]

    def evaluate(self, bindings: Dict[str, Dict[str, Any]]) -> bool:
        results = (
            part.evaluate(bindings.get(part.var, {}))
            if isinstance(part, Comparison)
            else part.evaluate(bindings)
            for part in self.parts
        )
        return all(results) if self.op == "and" else any(results)

    def vars_used(self) -> set:
        used = set()
        for part in self.parts:
            if isinstance(part, Comparison):
                used.add(part.var)
            else:
                used |= part.vars_used()
        return used

    def render(self) -> str:
        if self.op == "and":
            rendered = [
                f"({part.render()})" if isinstance(part, BoolExpr) else part.render()
                for part in self.parts
            ]
            return " AND ".join(rendered)
        rendered = [
            f"({part.render()})"
            if isinstance(part, BoolExpr) and part.op == "or"
            else part.render()
            for part in self.parts
        ]
        return " OR ".join(rendered)


# ---------------------------------------------------------------------------
# RETURN
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReturnItem:
    """One projection: a variable, an attribute, or COUNT(*)."""

    var: Optional[str]
    attr: Optional[str]
    is_count: bool = False

    @property
    def label(self) -> str:
        if self.is_count:
            return "count(*)"
        return f"{self.var}.{self.attr}" if self.attr else self.var

    def render(self) -> str:
        return self.label


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchQuery:
    """A parsed MATCH query, ready to plan and execute."""

    nodes: Tuple[NodePattern, ...]
    edges: Tuple[EdgePattern, ...]
    where: Optional[BoolExpr] = None
    returns: Tuple[ReturnItem, ...] = ()
    order_by: Optional[ReturnItem] = None
    order_desc: bool = False
    limit: Optional[int] = None

    @property
    def variables(self) -> list:
        return [node.var for node in self.nodes]

    def render(self) -> str:
        parts = ["MATCH ", self.nodes[0].render()]
        for edge, node in zip(self.edges, self.nodes[1:]):
            parts.append(edge.render())
            parts.append(node.render())
        if self.where is not None:
            parts.append(f" WHERE {self.where.render()}")
        parts.append(" RETURN ")
        parts.append(", ".join(item.render() for item in self.returns))
        if self.order_by is not None:
            parts.append(f" ORDER BY {self.order_by.render()}")
            if self.order_desc:
                parts.append(" DESC")
        if self.limit is not None:
            parts.append(f" LIMIT {self.limit}")
        return "".join(parts)


@dataclass(frozen=True)
class CallQuery:
    """``CALL procedure(arg, ...) [LIMIT n]``."""

    procedure: str
    args: Tuple[Literal, ...] = ()
    limit: Optional[int] = None

    def render(self) -> str:
        rendered = ", ".join(render_literal(a) for a in self.args)
        text = f"CALL {self.procedure}({rendered})"
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text


#: any parsed query
QueryAst = Union[MatchQuery, CallQuery]


def render(query: QueryAst) -> str:
    """Canonical query text for a parsed query (inverse of ``parse``)."""
    return query.render()
