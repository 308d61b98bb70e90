"""Finite groups, their regular representations, and free-group subgroup ranks.

The left regular representation of a finite group G carries the canonical
trace x -> <x delta_e, delta_e>; its block decomposition is discovered
numerically and packaged as a TracialAlgebra whose generating tuple consists
of the self-adjoint real/imaginary parts of a generating set of G.  For free
groups, coset enumeration over a homomorphism into a finite group yields the
kernel's coset graph, whose non-tree edges enumerate free generators of the
kernel (rank 1 + index (n - 1)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import TracialAlgebra
from .errors import FreedimError, NotGeneratingSet, TooLarge
from .wedderburn import blockify

# Largest group order whose regular representation is decomposed.
ORDER_CAP = 24
# Largest order whose multiplication table is built for a Schreier graph.  The
# associativity pass (two order^3 index tensors, 76 MB at 168 = |PSL(2, 7)|, 6 GB
# at 720) runs once, at ingestion, and only for `table` sections and from_mult_table.
TABLE_ORDER_CAP = 168

Word = tuple[int, ...]  # letters: +k is generator k (1-based), -k its inverse


# ---------------------------------------------------------------------------
# finite group tables
# ---------------------------------------------------------------------------

@dataclass
class FiniteGroupTable:
    """A finite group as an explicit multiplication table."""

    order: int
    mult: np.ndarray          # (order, order) int indices
    inverse: np.ndarray       # (order,) int indices
    identity: int
    names: tuple[str, ...]

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])


def _group_axioms(mult) -> tuple[np.ndarray, int, np.ndarray]:
    """A multiplication table as an index array, its identity and its inverse
    map; FreedimError unless it is a group's (identity, inverses, associativity)."""
    M = np.asarray(mult, dtype=int)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise FreedimError(f"multiplication table has shape {M.shape}")
    o = M.shape[0]
    if M.min() < 0 or M.max() >= o:
        raise FreedimError("multiplication table entries out of range")

    identity = -1
    for e in range(o):
        if np.array_equal(M[e], np.arange(o)) and np.array_equal(M[:, e], np.arange(o)):
            identity = e
            break
    if identity < 0:
        raise FreedimError("multiplication table has no identity element")

    inverse = np.full(o, -1, dtype=int)
    for a in range(o):
        hits = np.flatnonzero(M[a] == identity)
        if hits.size != 1 or M[hits[0], a] != identity:
            raise FreedimError(f"element {a} has no two-sided inverse")
        inverse[a] = hits[0]

    # associativity on all triples, vectorized: two order^3 index tensors
    # (TABLE_ORDER_CAP bounds the orders the CLI passes here)
    left = M[M, :]            # [a, b, c] -> M[M[a, b], c]
    right = M[:, M]           # [a, b, c] -> M[a, M[b, c]]
    if not np.array_equal(left, right):
        raise FreedimError("multiplication table is not associative")
    return M, identity, inverse


def from_mult_table(mult) -> FiniteGroupTable:
    """Validate a table from outside the program: identity, inverses, and the order^3
    associativity pass (76 MB at 168) that only this and a `table` section's ingestion run."""
    return _known_group(*_group_axioms(mult))


def _known_group(mult, identity: int, inverse, names=None) -> FiniteGroupTable:
    """The table of a group whose identity and inverse map are known, unchecked."""
    names = tuple(map(str, range(len(mult)))) if names is None else tuple(names)
    return FiniteGroupTable(len(mult), mult, inverse, identity, names)


def cyclic_group(n: int) -> FiniteGroupTable:
    idx = np.arange(n)
    return _known_group((idx[:, None] + idx[None, :]) % n, 0, -idx % n)


def symmetric_group(n: int) -> FiniteGroupTable:
    perms = sorted(itertools.permutations(range(n)))
    P = np.array(perms, dtype=int).reshape(len(perms), n)
    # (pq)[k] = p[q[k]], ranked by its base-n code (monotone in lexicographic
    # order, so the identity is element 0 and p^-1 is where row p holds 0)
    code = n ** np.arange(n - 1, -1, -1)
    M = np.searchsorted(P @ code, P[:, P] @ code)
    return _known_group(M, 0, np.nonzero(M == 0)[1], ["".join(map(str, p)) for p in perms])


def direct_product(g: FiniteGroupTable, h: FiniteGroupTable) -> FiniteGroupTable:
    # element (a, b) has index a * |h| + b; identity and inverses componentwise
    a, b = np.divmod(np.arange(g.order * h.order), h.order)
    M = g.mult[a[:, None], a] * h.order + h.mult[b[:, None], b]
    names = [f"({g.names[x]},{h.names[y]})" for x, y in zip(a, b)]
    return _known_group(M, g.identity * h.order + h.identity,
                        g.inverse[a] * h.order + h.inverse[b], names)


def permutation_from_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse 1-based cycle notation like "(1 2)(3 4)" into a permutation tuple.

    Cycles are applied left to right; points omitted from every cycle are
    fixed.  Returns p with p[i] = image of point i (0-based).
    """
    text = text.strip()
    if text in ("", "()", "e", "1"):
        return tuple(range(degree))
    if text.count("(") != text.count(")") or not text.startswith("("):
        raise FreedimError(f"malformed cycle notation {text!r}")
    perm = list(range(degree))
    body = text
    while body:
        if not body.startswith("("):
            raise FreedimError(f"malformed cycle notation {text!r}")
        close = body.index(")")
        points = body[1:close].replace(",", " ").split()
        body = body[close + 1 :].strip()
        if not all(p.isdecimal() for p in points):
            raise FreedimError(f"malformed cycle notation {text!r}")
        cycle = [int(p) - 1 for p in points]
        if any(p < 0 or p >= degree for p in cycle) or len(set(cycle)) != len(cycle):
            raise FreedimError(f"cycle {points} invalid for degree {degree}")
        step = list(range(degree))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            step[a] = b
        perm = [step[perm[i]] for i in range(degree)]
    return tuple(perm)


def symmetric_element_index(perm: Sequence[int], degree: int) -> int:
    """Index of a permutation tuple in the symmetric-group table of `degree`."""
    perms = sorted(itertools.permutations(range(degree)))
    try:
        return perms.index(tuple(perm))
    except ValueError:
        raise FreedimError(f"{perm!r} is not a permutation of {degree} points")


def closure(table: FiniteGroupTable, elements: Sequence[int]) -> set[int]:
    """Subgroup generated by the given elements."""
    seen = {table.identity}
    frontier = [table.identity]
    gens = list(dict.fromkeys(int(e) for e in elements))
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = table.mul(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def minimal_generating_set(table: FiniteGroupTable) -> list[int]:
    """Smallest generating set, found by exhaustive search in size order."""
    if table.order == 1:
        return []
    candidates = [g for g in range(table.order) if g != table.identity]
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if len(closure(table, combo)) == table.order:
                return list(combo)
    raise FreedimError("group has no generating set (corrupt table)")


def left_regular_matrices(table: FiniteGroupTable) -> np.ndarray:
    """Permutation matrices of left translation on l2(G)."""
    o = table.order
    mats = np.zeros((o, o, o), dtype=complex)
    g = np.arange(o)
    mats[g[:, None], table.mult, g] = 1.0
    return mats


def regular_rep_algebra(
    table: FiniteGroupTable,
    generating_set: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> TracialAlgebra:
    """The group algebra of G with its canonical trace, in block form.

    The block structure is discovered numerically from the left regular
    representation; the generating tuple consists of (g + g^-1)/2 for g in
    a generating set of G, and (g - g^-1)/(2i) for those g that are not
    involutions (it is zero for the others).
    """
    if table.order > ORDER_CAP:
        raise TooLarge(f"group order {table.order} exceeds the cap {ORDER_CAP}")
    if generating_set is None:
        generating_set = minimal_generating_set(table)
    else:
        generating_set = [int(g) for g in generating_set]
        if len(closure(table, generating_set)) != table.order:
            raise NotGeneratingSet(
                f"elements {generating_set} generate a proper subgroup"
            )

    lam = left_regular_matrices(table)
    e = table.identity

    gens, labels = [], []
    for g in generating_set:
        g_inv = table.inv(g)
        U, Uinv = lam[g], lam[g_inv]
        gens.append((U + Uinv) / 2.0)
        labels.append(f"Re[{table.names[g]}]")
        if g_inv != g:  # Im[g] is zero for an involution
            gens.append((U - Uinv) / 2.0j)
            labels.append(f"Im[{table.names[g]}]")
    if not gens:  # trivial group
        gens = [lam[e]]
        labels = ["Re[e]"]

    commuting = [lam[g] for g in generating_set] or [lam[e]]
    return blockify(
        span_mats=list(lam),
        commuting_set=commuting,
        trace_fn=lambda x: x[e, e],
        generators=gens,
        labels=labels,
        rng=np.random.default_rng(seed),
    )


# ---------------------------------------------------------------------------
# free words and coset graphs
# ---------------------------------------------------------------------------

def word_inverse(word: Sequence[int]) -> Word:
    return tuple(-letter for letter in reversed(word))


def word_str(word: Word, names: Sequence[str]) -> str:
    """Render a reduced word with collapsed exponents, e.g. u^2*v^-1."""
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        letter = word[i]
        j = i
        while j < len(word) and word[j] == letter:
            j += 1
        count = j - i
        base = names[abs(letter) - 1]
        exp = count if letter > 0 else -count
        parts.append(base if exp == 1 else f"{base}^{exp}")
        i = j
    return "*".join(parts)


@dataclass
class SchreierGraph:
    """Coset graph of the kernel of a homomorphism from a free group.

    Cosets of the kernel correspond to elements of the image subgroup; each
    free generator acts on them by right translation.  Non-tree edges of a
    breadth-first spanning tree enumerate free generators of the kernel.
    """

    n: int
    cosets: tuple[int, ...]                 # image-subgroup elements, BFS order
    edges: np.ndarray                       # (index, n) coset transition table
    transversal: tuple[Word, ...]           # coset representative words
    subgroup_generators: tuple[Word, ...]   # reduced free words
    names: tuple[str, ...]

    @property
    def index(self) -> int:
        return len(self.cosets)

    @property
    def rank(self) -> int:
        return len(self.subgroup_generators)


def schreier_graph(
    n: int, images: Sequence[int], table: FiniteGroupTable
) -> SchreierGraph:
    """Enumerate the kernel's cosets and extract its free generators
    (named u, v for n = 2 and x1, ..., xn otherwise).

    Words are concatenated, and come out freely reduced: transversal words
    are positive, so the generator t_i x_k t_j^-1 of a non-tree edge (i, k)
    could cancel only if t_j ended in x_k; then j's parent p would satisfy
    p img_k = j = i img_k, so p = i and (i, k) would be the tree edge to j.
    Of the m n edges of the m cosets, all but the m - 1 that reach a new coset
    emit one: 1 + m(n - 1), the rank that the Nielsen-Schreier formula gives.
    Each lies in the kernel: t_i, x_k and t_j map to v_i, img_k and v_j, and
    j was reached as v_i img_k, so t_i x_k t_j^-1 maps to e in any group."""
    if len(images) != n:
        raise FreedimError(f"{len(images)} images for {n} free generators")
    images = [int(g) for g in images]
    names = tuple(f"x{k + 1}" for k in range(n)) if n != 2 else ("u", "v")

    e = table.identity
    order = [e]
    pos = {e: 0}
    transversal: list[Word] = [()]
    rows: list[list[int]] = []
    gens: list[Word] = []
    # one breadth-first walk: a target reached by a non-tree edge of head i
    # already has its transversal word, so the edge's generator is emitted
    # in (i, k) order as it is found
    for i, v in enumerate(order):
        row = []
        for k in range(n):
            w = table.mul(v, images[k])
            if w not in pos:
                pos[w] = len(order)
                order.append(w)
                transversal.append(transversal[i] + (k + 1,))
            else:
                gens.append(transversal[i] + (k + 1,) + word_inverse(transversal[pos[w]]))
            row.append(pos[w])
        rows.append(row)

    m = len(order)
    edges = np.array(rows, dtype=int).reshape(m, n)
    return SchreierGraph(
        n=n,
        cosets=tuple(order),
        edges=edges,
        transversal=tuple(transversal),
        subgroup_generators=tuple(gens),
        names=names,
    )


# ---------------------------------------------------------------------------
# Betti inputs and the dimension formula for group algebra generators
# ---------------------------------------------------------------------------

@dataclass
class BettiInput:
    """First two L2 Betti numbers of a group."""

    beta0: float
    beta1: float

    @classmethod
    def free_group(cls, k: int) -> "BettiInput":
        if k < 1:
            raise FreedimError("free-group rank must be >= 1")
        return cls(beta0=0.0, beta1=float(k - 1))

    @classmethod
    def finite_group(cls, order: int) -> "BettiInput":
        if order < 1:
            raise FreedimError("group order must be >= 1")
        return cls(beta0=1.0 / order, beta1=0.0)


def betti_delta_formula(inp: BettiInput) -> float:
    """beta1 - beta0 + 1: the dimension value attached to group-algebra generators."""
    return inp.beta1 - inp.beta0 + 1.0


# ---------------------------------------------------------------------------
# the semicontinuity counterexample
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_K_VALUES = (1, 2, 3, 4, 5, 10, 100)


def counterexample_report(k_values: Sequence[int] = COUNTEREXAMPLE_K_VALUES) -> dict:
    """A generator sequence whose dimension value drops in the limit.

    Eight self-adjoint variables over the free group on u, v: the real and
    imaginary parts of u^2, v^2 and uv, plus (1/k) Re u and (1/k) Im v.
    For every finite k the tuple generates the whole two-generator free group
    algebra (value 2); the limit tuple generates the algebra of the kernel of
    u, v -> 1 in Z/2, a free group of rank 3 (value 3), while the tuples
    converge in operator norm.
    """
    z2 = cyclic_group(2)
    graph = schreier_graph(2, [1, 1], z2)

    per_k_delta = betti_delta_formula(BettiInput.free_group(2))
    limit_delta = betti_delta_formula(BettiInput.free_group(graph.rank))

    variables = [
        {"name": "A1", "definition": "Re(u^2)", "limit": "Re(u^2)"},
        {"name": "A2", "definition": "Im(u^2)", "limit": "Im(u^2)"},
        {"name": "B1", "definition": "Re(v^2)", "limit": "Re(v^2)"},
        {"name": "B2", "definition": "Im(v^2)", "limit": "Im(v^2)"},
        {"name": "C1", "definition": "Re(u*v)", "limit": "Re(u*v)"},
        {"name": "C2", "definition": "Im(u*v)", "limit": "Im(u*v)"},
        {"name": "W1", "definition": "(1/k) Re(u)", "limit": "0"},
        {"name": "W2", "definition": "(1/k) Im(v)", "limit": "0"},
    ]
    per_k = [
        {
            "k": int(k),
            "delta": per_k_delta,
            "generated": "group algebra of the free group on u, v",
            # u is unitary, so its real and imaginary parts have norm <= 1;
            # int / int is correctly rounded where 1.0 / k overflows past 1e308
            "shrink_norm_bound": 1 / int(k),
        }
        for k in k_values
    ]

    return {
        "variables": variables,
        "per_k": per_k,
        "liminf_delta": per_k_delta,
        "limit": {
            "delta": limit_delta,
            "generated": "group algebra of the kernel of u, v -> 1 in Z/2",
            "kernel_index": graph.index,
            "kernel_rank": graph.rank,
            "kernel_generators": [word_str(w, graph.names)
                                  for w in graph.subgroup_generators],
            "kernel_verified": True,  # by construction (schreier_graph)
        },
        "convergence": {
            "mode": "operator norm (hence strong)",
            "bound": "shrinking coordinates have norm <= 1/k; others are constant",
        },
        "verdict": "liminf delta = 2 < 3 = delta(limit)",
        "strict_drop": per_k_delta < limit_delta,
        "definition_note": (
            "the shrinking pair is taken as (1/k) Re(u) and (1/k) Im(v); any "
            "choice of vanishing coordinates built from u and v leaves the "
            "generated algebras, hence both dimension values, unchanged"
        ),
        "provenance": {
            "per_k_delta": "free-group formula at rank 2 (pinned)",
            "limit_delta": "free-group formula at the kernel rank from coset "
                           "enumeration",
        },
    }
