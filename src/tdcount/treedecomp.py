"""Tree decompositions: greedy elimination orderings, bucket-elimination
construction, validation, nice-form conversion, and PACE-style .td I/O."""

from __future__ import annotations

import enum
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from .errors import InvariantError, ParseError
from .graphs import Graph


class ViolationKind(enum.Enum):
    VERTEX_NOT_COVERED = "vertex-not-covered"
    EDGE_NOT_COVERED = "edge-not-covered"
    CONNECTEDNESS_BROKEN = "connectedness-broken"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    witness: tuple


@dataclass
class TreeDecomposition:
    """Rooted decomposition; node i has bag bags[i] and children children[i]."""

    bags: list[frozenset[int]]
    children: list[list[int]]
    root: int
    num_graph_vertices: int

    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @property
    def num_nodes(self) -> int:
        return len(self.bags)

    def tree_edges(self):
        for parent, kids in enumerate(self.children):
            for child in kids:
                yield (parent, child)


class NodeKind(enum.Enum):
    LEAF = "leaf"
    INTRODUCE = "introduce"
    FORGET = "forget"
    JOIN = "join"


@dataclass(frozen=True)
class NiceNode:
    kind: NodeKind
    bag: tuple[int, ...]  # sorted ascending
    vertex: int | None
    children: tuple[int, ...]


@dataclass
class NiceTreeDecomposition:
    """Nodes are stored in post-order: children always precede parents,
    the root is the last node and has an empty bag."""

    nodes: list[NiceNode]
    num_graph_vertices: int
    forget_node_of: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        for i, node in enumerate(self.nodes):
            if node.children and max(node.children) >= i:
                raise ValueError(f"nodes must be post-ordered (node {i})")
        if not self.nodes or self.nodes[-1].bag != ():
            raise ValueError("root bag must be empty")
        self.forget_node_of = {}
        for i, node in enumerate(self.nodes):
            if node.kind is NodeKind.FORGET:
                if node.vertex in self.forget_node_of:
                    raise ValueError(f"vertex {node.vertex} is forgotten twice")
                self.forget_node_of[node.vertex] = i

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    def width(self) -> int:
        return max(len(n.bag) for n in self.nodes) - 1


def width(td) -> int:
    """Width of a (nice) tree decomposition: largest bag size minus one."""
    return td.width()


def _min_degree_score(adj, v):
    return len(adj[v])


def _min_fill_score(adj, v):
    ns = adj[v]
    missing = 0
    for u in ns:
        # ns - adj[u] holds u itself plus the neighbors u is not adjacent to
        missing += len(ns - adj[u]) - 1
    return missing // 2  # each non-adjacent pair was counted from both ends


def _make_clique(adj, v) -> None:
    """Eliminate v from the fill-in graph `adj`: its neighbors lose v and
    become a clique.  `adj[v]` is left as it was."""
    ns = adj[v]
    for u in ns:
        at_u = adj[u]
        at_u.discard(v)
        at_u |= ns
        at_u.discard(u)


def _make_clique_counted(adj, v, missing) -> set[int]:
    """Eliminate v as `_make_clique` does, one fill edge at a time, and
    keep `missing[x]`, the min-fill score of x (the non-adjacent pairs of
    N(x)), exact for every live x.  A fill edge (a, b) pairs b with each
    neighbor of a, of which those in N(a) ∩ N(b) were already adjacent
    to b, and likewise for a; it also joins a pair of N(c) for each
    common neighbor c of a and b.  Once N(v) is a clique, each u in N(v)
    loses v, and with it the pairs of v and u's neighbors outside N(v).
    Returns the vertices whose score may have changed."""
    ns = adj[v]
    changed = set(ns)
    left = missing[v]  # fill edges still to add
    for a in ns:
        if not left:
            break
        at_a = adj[a]
        for b in ns - at_a:
            if b != a:
                at_b = adj[b]
                common = at_a & at_b
                missing[a] += len(at_a) - len(common)
                missing[b] += len(at_b) - len(common)
                for c in common:
                    missing[c] -= 1
                changed |= common
                at_a.add(b)
                at_b.add(a)
                left -= 1
    for u in ns:
        at_u = adj[u]
        missing[u] -= len(at_u) - len(ns)
        at_u.discard(v)
    changed.discard(v)
    return changed


def _in_order(adj, ordering):
    """Yield the given ordering, eliminating each vertex once resumed."""
    for v in ordering:
        yield v
        _make_clique(adj, v)


def _greedy(adj, heuristic: str, seed: int, defer):
    """Yield a greedy ordering, eliminating each yielded vertex from the
    fill-in graph `adj` once resumed: the lowest score among the live
    vertices outside `defer` (among all live ones once only deferred
    ones remain).  Ties are a uniform draw, from a generator seeded with
    `seed`, from the tied vertices in ascending order; a single lowest
    vertex is taken without a draw, so it leaves the generator's state
    alone.

    Each live vertex keeps its score, filed under its key (the score,
    plus n² if deferred) in a bucket kept sorted, so a draw needs no
    sort of the ties.  Every vertex is scored once, at the start; after
    that the scores are kept exact as the graph changes.  Under
    min-degree an elimination changes only the degrees of N(v).  Under
    min-fill `_make_clique_counted` adds the fill edges one at a time
    and updates the score of each vertex an edge touches: its ends,
    their common neighbors, and N(v) as it loses v."""
    if heuristic == "min-fill":
        score = _min_fill_score
    elif heuristic == "min-degree":
        score = _min_degree_score
    else:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    fill = score is _min_fill_score
    rng = random.Random(seed)
    n = len(adj)
    scores = [score(adj, v) for v in range(n)]
    # n² exceeds any score, so a deferred vertex is drawn only once no
    # other vertex is left
    deferred = frozenset(defer)
    shift = [n * n if v in deferred else 0 for v in range(n)]
    key = [s + d for s, d in zip(scores, shift)]
    index: dict[int, list[int]] = {}  # key -> sorted live vertices
    for v, k in enumerate(key):
        index.setdefault(k, []).append(v)

    def unplace(u, k):
        bucket = index[k]
        del bucket[bisect_left(bucket, u)]
        if not bucket:
            del index[k]

    while index:
        ties = index[min(index)]
        v = ties[0] if len(ties) == 1 else rng.choice(ties)
        unplace(v, key[v])
        yield v
        if fill:
            changed = _make_clique_counted(adj, v, scores)
        else:
            _make_clique(adj, v)
            changed = adj[v]
            for u in changed:
                scores[u] = len(adj[u])
        for u in changed:
            k = scores[u] + shift[u]
            if k != key[u]:
                unplace(u, key[u])
                key[u] = k
                insort(index.setdefault(k, []), u)


def _eliminate(graph: Graph, vertices) -> tuple[list[int], TreeDecomposition]:
    """The one elimination pass over a copy `adj` of the graph:
    `vertices(adj)` yields the vertices in order and, once resumed, has
    eliminated the one it yielded, its remaining neighbors made a
    clique of the fill-in graph.  Returns the ordering and the bucket
    decomposition built along it (see `td_from_ordering`); nodes with an
    empty bag remainder attach to the last node."""
    adj = [set(ns) for ns in graph.neighbors]
    order = []
    bags = []
    for v in vertices(adj):
        order.append(v)
        bags.append(frozenset(adj[v] | {v}))
    n = len(order)
    if n == 0:
        return order, TreeDecomposition([frozenset()], [[]], 0, 0)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    root = n - 1
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(root):
        rest = adj[order[i]]  # left as it was when order[i] was eliminated
        children[min(map(pos.__getitem__, rest)) if rest else root].append(i)
    return order, TreeDecomposition(bags, children, root, n)


def elimination_ordering(
    graph: Graph, heuristic: str = "min-fill", seed: int = 0, defer=()
) -> list[int]:
    """Greedy ordering under min-fill or min-degree scoring.  Ties are
    broken by a uniform draw, from a generator seeded with `seed`, from
    the tied vertices in ascending order, and a single lowest vertex is
    taken without a draw, so repeated calls with identical arguments
    agree.  Vertices in `defer` are eliminated only once every other
    vertex is gone.  Each vertex is scored once, at the start; each
    elimination then updates only the scores it changes.  A vertex's
    min-fill score is the number of non-adjacent pairs among its
    neighbors: a fill edge raises the score of each end by its neighbors
    not adjacent to the other end, and lowers the score of every common
    neighbor of both ends by one."""
    return _eliminate(graph, lambda adj: _greedy(adj, heuristic, seed, defer))[0]


def td_from_ordering(graph: Graph, ordering: list[int]) -> TreeDecomposition:
    """Bucket elimination: the bag of v is v plus its later neighbors in
    the fill-in graph; each node attaches to the earliest-eliminated
    vertex of its bag remainder."""
    if sorted(ordering) != list(range(graph.num_vertices)):
        raise ValueError("ordering must be a permutation of the vertices")
    return _eliminate(graph, lambda adj: _in_order(adj, ordering))[1]


def validate_td(graph: Graph, td: TreeDecomposition) -> Violation | None:
    """None when the three decomposition conditions hold, else the first
    violation found (vertex coverage, edge coverage, connectedness)."""
    nodes_with: dict[int, set[int]] = {v: set() for v in range(graph.num_vertices)}
    for i, bag in enumerate(td.bags):
        for v in bag:
            if v not in nodes_with:
                return Violation(ViolationKind.VERTEX_NOT_COVERED, (v,))
            nodes_with[v].add(i)
    for v in range(graph.num_vertices):
        if not nodes_with[v]:
            return Violation(ViolationKind.VERTEX_NOT_COVERED, (v,))
    for u, v in sorted(graph.edges()):
        if not (nodes_with[u] & nodes_with[v]):
            return Violation(ViolationKind.EDGE_NOT_COVERED, (u, v))
    neigh: list[list[int]] = [[] for _ in range(td.num_nodes)]
    for p, c in td.tree_edges():
        neigh[p].append(c)
        neigh[c].append(p)
    for v in range(graph.num_vertices):
        members = nodes_with[v]
        start = next(iter(members))
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in neigh[cur]:
                if nxt in members and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != members:
            return Violation(ViolationKind.CONNECTEDNESS_BROKEN, (v,))
    return None


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Convert to typed Leaf/Introduce/Forget/Join form.  Width is
    preserved, every source bag appears, and Forget nodes are inserted
    above the old root until the bag is empty."""
    nodes: list[NiceNode] = []
    add = nodes.append
    forget, introduce = NodeKind.FORGET, NodeKind.INTRODUCE

    def chain_to(cur, cur_bag, target_bag):
        """Extend node `cur` to `target_bag`: forget the vertices it
        lacks, then introduce the new ones, each in ascending order.
        The running bag is a sorted list, so a node's bag is a copy.
        Returns the top node, whose bag is `target_bag` sorted."""
        bag = sorted(cur_bag)
        for v in sorted(cur_bag - target_bag):
            del bag[bisect_left(bag, v)]
            add(NiceNode(forget, tuple(bag), v, (cur,)))
            cur = len(nodes) - 1
        for v in sorted(target_bag - cur_bag):
            insort(bag, v)
            add(NiceNode(introduce, tuple(bag), v, (cur,)))
            cur = len(nodes) - 1
        return cur

    # iterative post-order over the source tree
    order = []
    stack = [td.root]
    while stack:
        t = stack.pop()
        order.append(t)
        stack.extend(td.children[t])
    order.reverse()

    bags = [frozenset(bag) for bag in td.bags]  # no copy of a frozenset
    built: dict[int, int] = {}
    for t in order:
        bag = bags[t]
        kids = td.children[t]
        if not kids:
            add(NiceNode(NodeKind.LEAF, (), None, ()))
            cur = chain_to(len(nodes) - 1, frozenset(), bag)
        else:
            tops = [chain_to(built[c], bags[c], bag) for c in kids]
            cur = tops[0]
            for other in tops[1:]:
                add(NiceNode(NodeKind.JOIN, nodes[cur].bag, None, (cur, other)))
                cur = len(nodes) - 1
        built[t] = cur

    cur = chain_to(built[td.root], bags[td.root], frozenset())
    if cur != len(nodes) - 1:
        raise InvariantError("the root must be the last nice node")

    ntd = NiceTreeDecomposition(nodes, td.num_graph_vertices)
    if ntd.width() != td.width():
        raise InvariantError("nice form changed the width")
    if ntd.forget_node_of.keys() != set().union(*bags):
        raise InvariantError("each vertex of a bag must be forgotten exactly once")
    return ntd


@dataclass
class DecompResult:
    ntd: NiceTreeDecomposition
    td: TreeDecomposition
    width: int
    seed: int
    heuristic: str


def seeded_decompositions(graph: Graph, heuristic: str, seed: int, tries: int):
    """Yield (seed, width, decomposition) for `tries` consecutive seeds
    from `seed`, one elimination pass each."""
    if tries < 1:
        raise ValueError("tries must be positive")
    for s in range(seed, seed + tries):
        td = _eliminate(graph, lambda adj: _greedy(adj, heuristic, s, ()))[1]
        yield s, td.width(), td


def lowest_width(tried):
    """The first (seed, width, ...) entry of least width; entries come in
    seed order, so ties go to the lowest seed."""
    return min(tried, key=lambda entry: entry[1])


def decompose(
    graph: Graph, heuristic: str = "min-fill", seed: int = 0, tries: int = 1
) -> DecompResult:
    """Run `tries` seeded orderings and keep the best: lowest width,
    breaking ties toward the lowest seed."""
    s, w, td = lowest_width(seeded_decompositions(graph, heuristic, seed, tries))
    return DecompResult(make_nice(td), td, w, s, heuristic)


# --- PACE .td I/O (1-based vertices and bag ids) ---


def write_td(td: TreeDecomposition) -> str:
    lines = [
        f"s td {td.num_nodes} {td.width() + 1} {td.num_graph_vertices}"
    ]
    for i, bag in enumerate(td.bags):
        entries = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {i + 1} {entries}".rstrip())
    for p, c in td.tree_edges():
        lines.append(f"{min(p, c) + 1} {max(p, c) + 1}")
    return "\n".join(lines) + "\n"


def read_td(text: str) -> TreeDecomposition:
    """Parse a .td file; the tree is rooted at bag 1.  A malformed file
    raises ParseError at its first fault in file order, naming the fault's
    line, except a missing solution line, bag ids that do not cover the
    declared range and a bag graph with too few edges to connect it,
    which no single line causes."""
    num_bags = None
    num_vertices = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    parent: list[int] = []  # union-find over bag ids, to find the edge that closes a cycle
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        kind, start = {"s": ("solution", 2), "b": ("bag", 1)}.get(parts[0], ("edge", 0))
        try:
            nums = [int(t) for t in parts[start:]]
        except ValueError:
            raise ParseError(f"non-numeric token in {kind} line", line_no) from None
        if kind != "solution" and num_bags is None:
            raise ParseError(f"{kind} line before solution line", line_no)
        if kind == "solution":
            if num_bags is not None:
                raise ParseError("duplicate solution line", line_no)
            if len(parts) != 5 or parts[1] != "td" or min(nums) < 0:
                raise ParseError("malformed solution line", line_no)
            num_bags, _width_plus, num_vertices = nums
            parent = list(range(num_bags + 1))
        elif kind == "bag":
            if not nums or nums[0] in bags or not 1 <= nums[0] <= num_bags:
                raise ParseError(f"bad bag id in {line!r}", line_no)
            if not all(1 <= v <= num_vertices for v in nums[1:]):
                raise ParseError(f"bag vertex out of range 1..{num_vertices}", line_no)
            bags[nums[0]] = frozenset(v - 1 for v in nums[1:])
        elif len(parts) != 2:
            raise ParseError("malformed edge line", line_no)
        else:
            a, b = nums
            if not (1 <= a <= num_bags and 1 <= b <= num_bags):
                raise ParseError(f"edge endpoint out of range: {a} {b}", line_no)
            root_a, root_b = _find(parent, a), _find(parent, b)
            if root_a == root_b:
                raise ParseError("bag graph has a cycle", line_no)
            parent[root_a] = root_b
            edges.append((a, b))
    if num_bags is None:
        raise ParseError("missing solution line")
    if set(bags) != set(range(1, num_bags + 1)):
        raise ParseError("bag ids do not cover the declared range")
    if len(edges) != num_bags - 1:  # acyclic, so too few edges to connect
        raise ParseError("bag graph is not a connected tree")
    neigh: list[list[int]] = [[] for _ in range(num_bags + 1)]
    for a, b in edges:
        neigh[a].append(b)
        neigh[b].append(a)
    children: list[list[int]] = [[] for _ in range(num_bags)]
    seen = {1}
    stack = [1]
    while stack:
        cur = stack.pop()
        for nxt in neigh[cur]:
            if nxt not in seen:
                seen.add(nxt)
                children[cur - 1].append(nxt - 1)
                stack.append(nxt)
    bag_list = [bags[i + 1] for i in range(num_bags)]
    return TreeDecomposition(bag_list, children, 0, num_vertices)


def _find(parent: list[int], x: int) -> int:
    """The root of x's set in the union-find `parent`, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x
