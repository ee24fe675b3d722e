"""Query planner and executor over :class:`GraphIndexes`.

**Planner.** A match chain can be entered at any variable: the planner
scores every equality constraint (inline ``{attr: value}`` props and
``var.attr = literal`` conjuncts on the WHERE's AND-spine) against the
inverted attribute indexes and starts the traversal at the variable
with the smallest candidate set. Unconstrained queries fall back to a
scan of every node.

**Executor.** From the start variable the chain is expanded rightwards
then leftwards with per-variable pruning (inline props plus the
AND-spine comparisons mentioning only that variable), reading the
direction-appropriate neighbours for each edge pattern. A variable
with nothing to prune is bound without reading its attributes. A
variable-length hop (``*lo..hi``) binds the far variable to every node
whose *shortest* distance over the selected edge types and direction
falls inside the range (breadth-first with a visited set, expanding
each clique once, so the walk is linear in the touched nodes and
cliques, not the path count). Complete
bindings are checked against the residual WHERE only: nothing when the
WHERE is an AND of comparisons (pruning already applied each one), the
whole WHERE when it holds an OR or a parenthesised group.

Row order is canonical — bindings sort by their node-id tuple before
projection — so the indexed executor, the naive scan baseline and every
serving surface (Python API, CLI, ``/v1/query``) return identical rows
for the same query.

``naive=True`` disables index seeding, selectivity planning and WHERE
pushdown (the traversal starts at the leftmost variable over a full
node scan and filters complete bindings at the end; inline props still
apply, since they define the pattern); it exists as the correctness
baseline and the benchmark's comparison point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.graph import EdgeType
from repro.core.query.ast import (
    BoolExpr,
    CallQuery,
    Comparison,
    EdgePattern,
    MatchQuery,
    QueryAst,
    QueryError,
    ReturnItem,
)
from repro.core.query.indexes import (
    INDEXED_ATTRS,
    GraphIndexes,
    Run,
    _layers,
    _unexpanded,
)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plan:
    """Where execution enters the pattern and why."""

    start: int  # index into query.nodes
    seed_attr: Optional[str] = None
    seed_value: Any = None
    estimated: int = 0

    def describe(self, query: MatchQuery) -> str:
        var = query.nodes[self.start].var
        if self.seed_attr is None:
            return f"scan all nodes as ({var})"
        return (
            f"seed ({var}) from index {self.seed_attr}="
            f"{self.seed_value!r} (~{self.estimated} candidates)"
        )


def _and_spine(where: Optional[BoolExpr]) -> List[Comparison]:
    """Top-level AND conjuncts of the WHERE clause (empty under OR)."""
    if where is None:
        return []
    if where.op == "or":
        return []
    return [part for part in where.parts if isinstance(part, Comparison)]


def _equality_constraints(
    query: MatchQuery, index: int
) -> List[Tuple[str, Any]]:
    """``attr == value`` constraints binding variable ``index``."""
    node = query.nodes[index]
    found: List[Tuple[str, Any]] = list(node.props)
    for comparison in _and_spine(query.where):
        if (
            comparison.var == node.var
            and comparison.op == "="
            and not comparison.negated
        ):
            found.append((comparison.attr, comparison.literal))
    return found


def plan_match(query: MatchQuery, indexes: GraphIndexes) -> Plan:
    """Pick the most selective indexed entry point into the pattern."""
    best: Optional[Plan] = None
    for i in range(len(query.nodes)):
        for attr, value in _equality_constraints(query, i):
            count = indexes.candidate_count(attr, value)
            if count is None:
                continue
            if best is None or count < best.estimated:
                best = Plan(start=i, seed_attr=attr, seed_value=value, estimated=count)
    if best is not None:
        return best
    return Plan(start=0, estimated=len(indexes.nodes))


# ---------------------------------------------------------------------------
# Traversal primitives
# ---------------------------------------------------------------------------

def _direction(edge: EdgePattern, forward: bool) -> str:
    """The index direction that crosses ``edge`` in one chain direction.

    ``forward`` walks the pattern left-to-right; an ``out`` edge then
    follows the forward map, while walking right-to-left follows the
    reverse map (and vice versa for ``in``).
    """
    if edge.direction == "out":
        return "out" if forward else "in"
    if edge.direction == "in":
        return "in" if forward else "out"
    return edge.direction


def reachable(
    runs: Callable[[str], Iterable[Run]],
    start: str,
    min_hops: int,
    max_hops: Optional[int],
) -> List[str]:
    """Nodes whose shortest distance from ``start`` is in [min, max]."""
    out: List[str] = []
    for depth, layer in _layers(runs, (start,), max_hops):
        if depth >= min_hops:
            out.extend(layer)
    return sorted(out)


def _hop_targets(
    indexes: GraphIndexes, node: str, edge: EdgePattern, forward: bool
) -> List[str]:
    direction = _direction(edge, forward)
    if not edge.is_variable:
        return indexes.neighbors(node, edge.types, direction)
    return reachable(
        lambda at: indexes.runs(at, edge.types, direction),
        node,
        edge.min_hops,
        edge.max_hops,
    )


# ---------------------------------------------------------------------------
# Match execution
# ---------------------------------------------------------------------------

def _node_predicate(
    query: MatchQuery, index: int, pushdown: bool
) -> Optional[Callable[[Dict[str, Any]], bool]]:
    """Per-variable pruning, or None when there is nothing to prune.

    Always enforces the pattern's inline props (they define the match,
    not an optimisation). With ``pushdown`` the AND-spine WHERE
    comparisons mentioning only this variable are applied at bind time
    too; the naive baseline leaves them for the final filter.
    """
    node = query.nodes[index]
    comparisons = (
        [c for c in _and_spine(query.where) if c.var == node.var]
        if pushdown
        else []
    )
    props = node.props
    if not comparisons and not props:
        return None

    def predicate(attrs: Dict[str, Any]) -> bool:
        for key, value in props:
            if attrs.get(key) != value:
                return False
        return all(c.evaluate(attrs) for c in comparisons)

    return predicate


def _residual_where(query: MatchQuery, naive: bool) -> Optional[BoolExpr]:
    """What of the WHERE is left to check on complete bindings.

    Nothing when it is an AND of comparisons on pattern variables:
    :func:`_node_predicate` applied each one to its own variable at bind
    time. The naive baseline, an OR and a parenthesised group keep the
    whole WHERE.
    """
    where = query.where
    if where is None or naive or where.op != "and":
        return where
    variables = set(query.variables)
    if all(
        isinstance(part, Comparison) and part.var in variables
        for part in where.parts
    ):
        return None
    return where


def _match_bindings(
    query: MatchQuery, indexes: GraphIndexes, naive: bool
) -> Tuple[List[Tuple[str, ...]], Plan]:
    """All satisfying bindings as node-id tuples (canonically sorted)."""
    n = len(query.nodes)
    if naive:
        plan = Plan(start=0, estimated=len(indexes.nodes))
    else:
        plan = plan_match(query, indexes)
    prune = [_node_predicate(query, i, pushdown=not naive) for i in range(n)]
    residual = _residual_where(query, naive)
    variables = query.variables

    if plan.seed_attr is not None:
        seeds: Iterable[str] = indexes.lookup(plan.seed_attr, plan.seed_value)
    else:
        seeds = indexes.nodes

    bindings: List[Tuple[str, ...]] = []
    assignment: List[Optional[str]] = [None] * n

    def emit_if_satisfied() -> None:
        if residual is not None:
            bound = {
                variables[i]: indexes.node_attrs(assignment[i]) for i in range(n)
            }
            if not residual.evaluate(bound):
                return
        bindings.append(tuple(assignment))  # type: ignore[arg-type]

    def extend_right(i: int) -> None:
        """Bind node i+1..n-1, then hand off to the left expansion."""
        if i + 1 >= n:
            extend_left(plan.start)
            return
        edge = query.edges[i]
        keep = prune[i + 1]
        for candidate in _hop_targets(indexes, assignment[i], edge, forward=True):
            if keep is not None and not keep(indexes.node_attrs(candidate)):
                continue
            assignment[i + 1] = candidate
            extend_right(i + 1)
            assignment[i + 1] = None

    def extend_left(i: int) -> None:
        """Bind node i-1..0, then emit the complete binding."""
        if i - 1 < 0:
            emit_if_satisfied()
            return
        edge = query.edges[i - 1]
        keep = prune[i - 1]
        for candidate in _hop_targets(indexes, assignment[i], edge, forward=False):
            if keep is not None and not keep(indexes.node_attrs(candidate)):
                continue
            assignment[i - 1] = candidate
            extend_left(i - 1)
            assignment[i - 1] = None

    keep = prune[plan.start]
    for seed in seeds:
        if keep is not None and not keep(indexes.node_attrs(seed)):
            continue
        assignment[plan.start] = seed
        extend_right(plan.start)
        assignment[plan.start] = None
    # The recursive closures reach themselves through their cells; unlink
    # them so refcounting frees the bindings once the caller is done,
    # instead of whenever a full cyclic collection next runs.
    del extend_right, extend_left

    bindings.sort()
    return bindings, plan


def _project(
    query: MatchQuery,
    bindings: List[Tuple[str, ...]],
    indexes: GraphIndexes,
) -> List[Tuple]:
    if any(item.is_count for item in query.returns):
        return [(len(bindings),)]

    var_index = {node.var: i for i, node in enumerate(query.nodes)}

    def column(item: ReturnItem) -> List[Any]:
        """One item's value in every binding; a bare variable is the
        binding's node id itself."""
        at = var_index[item.var]
        if item.attr is None:
            return [binding[at] for binding in bindings]
        return [indexes.node_attrs(binding[at]).get(item.attr) for binding in bindings]

    rows = list(zip(*[column(item) for item in query.returns]))

    if query.order_by is not None:
        # index tiebreak: equal keys must never fall through to comparing
        # row tuples (mixed None/str rows are unorderable), and ties stay
        # stable in canonical binding order
        decorated = sorted(
            (
                (key, idx, row)
                for idx, (key, row) in enumerate(zip(column(query.order_by), rows))
            ),
            key=lambda triple: ((triple[0] is None, triple[0]), triple[1]),
            reverse=query.order_desc,
        )
        rows = [row for _key, _idx, row in decorated]
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------

def resolve_selector(indexes: GraphIndexes, spec: Any) -> List[str]:
    """Resolve a procedure argument to a node set.

    Accepted forms: an exact node id (``pypi:pkg@1.0``), a bare package
    name, or ``attr:value`` over any indexed attribute — e.g.
    ``actor:wolf-spider``, ``campaign:c-0001``, ``sg:SG-0003``,
    ``ecosystem:npm``.
    """
    if not isinstance(spec, str) or not spec:
        raise QueryError(f"bad node selector {spec!r} (need a string)")
    if spec in indexes.attrs:
        return [spec]
    if ":" in spec:
        attr, _, value = spec.partition(":")
        if attr in INDEXED_ATTRS:
            found = indexes.lookup(attr, value)
            if found:
                return list(found)
        members = indexes.group_members.get(spec.partition(":")[2], ())
        if members:
            return list(members)
    named = indexes.lookup("name", spec)
    if named:
        return list(named)
    raise QueryError(
        f"unknown node selector {spec!r}; use a node id, a package name, "
        f"or attr:value over one of {list(INDEXED_ATTRS)}"
    )


def _parse_types(spec: Any) -> Tuple[EdgeType, ...]:
    if spec is None or spec == "":
        return ()
    if not isinstance(spec, str):
        raise QueryError(f"bad edge-type list {spec!r}")
    types = []
    for part in spec.split("|"):
        try:
            types.append(EdgeType(part.strip().lower()))
        except ValueError:
            raise QueryError(
                f"unknown edge type {part.strip()!r}; expected one of "
                f"{[t.value for t in EdgeType]}"
            ) from None
    return tuple(types)


def shortest_path(
    indexes: GraphIndexes,
    sources: Sequence[str],
    targets: Sequence[str],
    edge_types: Sequence[EdgeType] = (),
) -> List[str]:
    """Deterministic multi-source BFS shortest path (node-id list).

    Traverses the undirected neighbour runs of the chosen edge types
    (all four when empty); returns ``[]`` when no path exists. Ties
    break toward lexicographically smaller expansion order: each node's
    runs are merged in sorted order. A clique expanded once has every
    member visited, so it is skipped at its other members; that changes
    no parent and no order.
    """
    target_set = set(targets)
    parents: Dict[str, Optional[str]] = {}
    queue: deque = deque()
    for source in sorted(set(sources)):
        parents[source] = None
        queue.append(source)
        if source in target_set:
            return [source]
    types = tuple(edge_types)
    expanded: set = set()
    while queue:
        node = queue.popleft()
        fresh = _unexpanded(indexes.runs(node, types, "any"), expanded)
        for other in fresh[0] if len(fresh) == 1 else sorted(chain.from_iterable(fresh)):
            if other in parents:
                continue
            parents[other] = node
            if other in target_set:
                path = [other]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            queue.append(other)
    return []


def neighborhood(
    indexes: GraphIndexes,
    sources: Sequence[str],
    k: int,
    edge_types: Sequence[EdgeType] = (),
) -> List[Tuple[str, int]]:
    """Every node within ``k`` hops of ``sources`` with its distance.

    Sources are included at distance 0; rows sort by (distance, node).
    """
    if k < 0:
        raise QueryError(f"neighborhood radius must be >= 0, got {k}")
    types = tuple(edge_types)
    distance: Dict[str, int] = {source: 0 for source in sources}
    layers = _layers(lambda node: indexes.runs(node, types, "any"), sources, k)
    for depth, layer in layers:
        distance.update(dict.fromkeys(layer, depth))
    return sorted(distance.items(), key=lambda pair: (pair[1], pair[0]))


def _execute_call(
    query: CallQuery, indexes: GraphIndexes
) -> Tuple[List[str], List[Tuple]]:
    args = query.args
    if query.procedure == "shortest_path":
        if not 2 <= len(args) <= 3:
            raise QueryError(
                "shortest_path(src, dst[, edge_types]) takes 2 or 3 arguments"
            )
        sources = resolve_selector(indexes, args[0])
        targets = resolve_selector(indexes, args[1])
        types = _parse_types(args[2] if len(args) == 3 else None)
        path = shortest_path(indexes, sources, targets, types)
        rows: List[Tuple] = [(step, node) for step, node in enumerate(path)]
        columns = ["step", "node"]
    elif query.procedure == "neighborhood":
        if not 2 <= len(args) <= 3:
            raise QueryError(
                "neighborhood(node, k[, edge_types]) takes 2 or 3 arguments"
            )
        if not isinstance(args[1], int):
            raise QueryError(
                f"neighborhood radius must be an integer, got {args[1]!r}"
            )
        sources = resolve_selector(indexes, args[0])
        types = _parse_types(args[2] if len(args) == 3 else None)
        rows = list(neighborhood(indexes, sources, args[1], types))
        columns = ["node", "distance"]
    else:  # pragma: no cover - the parser rejects unknown procedures
        raise QueryError(f"unknown procedure {query.procedure!r}")
    if query.limit is not None:
        rows = rows[: query.limit]
    return columns, rows


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def execute(
    query: QueryAst, indexes: GraphIndexes, naive: bool = False
) -> Tuple[List[str], List[Tuple], Optional[Plan]]:
    """Run a parsed query; returns (columns, rows, plan)."""
    if isinstance(query, CallQuery):
        columns, rows = _execute_call(query, indexes)
        return columns, rows, None
    bindings, plan = _match_bindings(query, indexes, naive=naive)
    rows = _project(query, bindings, indexes)
    columns = [item.label for item in query.returns]
    return columns, rows, plan
