import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

import freedim as fd
from conftest import evaluate_word, generates
from freedim.groups import left_regular_matrices, minimal_generating_set


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_cyclic_group_table():
    z4 = fd.cyclic_group(4)
    assert z4.order == 4
    assert z4.identity == 0
    assert z4.mul(3, 2) == 1
    assert z4.inv(1) == 3


def test_symmetric_group_table():
    s3 = fd.symmetric_group(3)
    assert s3.order == 6
    # every element times its inverse is the identity
    for g in range(6):
        assert s3.mul(g, s3.inv(g)) == s3.identity


def test_direct_product_order():
    v4 = fd.direct_product(fd.cyclic_group(2), fd.cyclic_group(2))
    assert v4.order == 4
    assert all(v4.mul(g, g) == v4.identity for g in range(4))


def test_index_built_tables_match_their_definitions():
    for n in range(5):
        perms = sorted(itertools.permutations(range(n)))
        table = fd.symmetric_group(n)
        assert table.names == tuple("".join(map(str, p)) for p in perms)
        for (i, p), (j, q) in itertools.product(enumerate(perms), repeat=2):
            assert perms[table.mul(i, j)] == tuple(p[k] for k in q)
    g, h = fd.symmetric_group(3), fd.cyclic_group(4)
    gh = fd.direct_product(g, h)
    pairs = list(itertools.product(range(g.order), range(h.order)))
    assert gh.names == tuple(f"({g.names[a]},{h.names[b]})" for a, b in pairs)
    lam = left_regular_matrices(gh)
    for (i, (a1, b1)), (j, (a2, b2)) in itertools.product(enumerate(pairs), repeat=2):
        k = gh.mul(i, j)
        assert pairs[k] == (g.mul(a1, a2), h.mul(b1, b2))
        assert lam[i, k, j] == 1.0
    assert np.array_equal(np.abs(lam).sum(axis=1), np.ones((gh.order, gh.order)))


def _assert_is_its_checked_table(t):
    # the identity and inverses a builder knows are the ones the axiom pass finds
    checked = fd.from_mult_table(t.mult)
    assert (t.order, t.identity, type(t.identity)) == (
        checked.order, checked.identity, type(checked.identity))
    for field in ("mult", "inverse"):
        got, want = getattr(t, field), getattr(checked, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field


def test_built_tables_match_the_axiom_pass():
    cyclic = [fd.cyclic_group(n) for n in range(1, 169)]
    symmetric = [fd.symmetric_group(n) for n in range(1, 6)]
    for t in cyclic + symmetric:
        _assert_is_its_checked_table(t)
    for n, t in enumerate(symmetric, start=1):
        assert t.names == tuple("".join(map(str, p))
                                for p in sorted(itertools.permutations(range(n))))
    factors = cyclic[:8] + [cyclic[11], cyclic[167]] + symmetric
    for g, h in itertools.product(factors, repeat=2):
        if g.order * h.order <= 168:
            _assert_is_its_checked_table(fd.direct_product(g, h))
    # a checked table whose identity is not element 0, as a product factor
    shift = (np.arange(4) + 1) % 4
    z4 = np.empty((4, 4), dtype=int)
    z4[shift[:, None], shift] = shift[cyclic[3].mult]
    assert fd.from_mult_table(z4).identity == 1
    _assert_is_its_checked_table(functools.reduce(
        fd.direct_product, [cyclic[1], fd.from_mult_table(z4), symmetric[2]]))
    _assert_is_its_checked_table(fd.direct_product(fd.from_mult_table(z4), cyclic[2]))


def test_bad_table_rejected():
    with pytest.raises(fd.FreedimError):
        fd.from_mult_table([[0, 1], [1, 1]])  # not a latin square / no inverse


# ---------------------------------------------------------------------------
# regular representations
# ---------------------------------------------------------------------------

def test_regular_rep_z2():
    alg = fd.regular_rep_algebra(fd.cyclic_group(2))
    assert sorted(alg.block_sizes) == [1, 1]
    np.testing.assert_allclose(sorted(alg.trace_weights), [0.5, 0.5], atol=1e-9)


def test_regular_rep_z3():
    alg = fd.regular_rep_algebra(fd.cyclic_group(3))
    assert sorted(alg.block_sizes) == [1, 1, 1]
    np.testing.assert_allclose(alg.trace_weights, [1 / 3] * 3, atol=1e-9)


def test_regular_rep_s3():
    alg = fd.regular_rep_algebra(fd.symmetric_group(3))
    assert sorted(alg.block_sizes) == [1, 1, 2]
    np.testing.assert_allclose(sorted(alg.trace_weights), [1 / 6, 1 / 6, 2 / 3],
                               atol=1e-9)
    assert sum(n * n for n in alg.block_sizes) == 6
    assert generates(alg)


def test_regular_rep_trace_is_point_evaluation():
    # tau(g) = 1 if g = e else 0, reproduced through the block trace: the
    # generators are the block images of Re lambda(g), and tau(lambda(g)) is real
    from freedim.wedderburn import blockify

    table = fd.symmetric_group(3)
    lam = left_regular_matrices(table)
    alg = blockify(
        span_mats=list(lam),
        commuting_set=[lam[g] for g in minimal_generating_set(table)],
        trace_fn=lambda x: x[table.identity, table.identity],
        generators=list(lam),
        labels=list(table.names),
        rng=np.random.default_rng(0),
    )
    for g in range(table.order):
        tau = alg.trace(alg.generators[g])
        expected = 1.0 if g == table.identity else 0.0
        assert abs(tau - expected) <= 1e-9


def test_regular_rep_too_large():
    with pytest.raises(fd.TooLarge):
        fd.regular_rep_algebra(fd.cyclic_group(25))


def test_regular_rep_bad_generating_set():
    z4 = fd.cyclic_group(4)
    with pytest.raises(fd.NotGeneratingSet):
        fd.regular_rep_algebra(z4, generating_set=[2])  # generates only {0, 2}


def test_regular_rep_trivial_group():
    alg = fd.regular_rep_algebra(fd.cyclic_group(1))
    assert alg.block_sizes == (1,)
    assert fd.delta_report(alg).Delta == 0.0


# ---------------------------------------------------------------------------
# coset graphs
# ---------------------------------------------------------------------------

def test_schreier_rank_mod_two_kernel():
    z2 = fd.cyclic_group(2)
    graph = fd.schreier_graph(2, [1, 1], z2)
    index, rank = graph.index, graph.rank
    assert (index, rank) == (2, 3)
    assert all(evaluate_word(w, [1, 1], z2) == z2.identity for w in graph.subgroup_generators)
    rendered = {fd.word_str(w, graph.names) for w in graph.subgroup_generators}
    assert "u^2" in rendered
    assert "u*v" in rendered


def test_schreier_rank_trivial_images():
    z2 = fd.cyclic_group(2)
    graph = fd.schreier_graph(2, [0, 0], z2)
    index, rank, gens = graph.index, graph.rank, graph.subgroup_generators
    assert (index, rank) == (1, 2)
    assert set(gens) == {(1,), (2,)}  # the free generators themselves


def test_schreier_rank_mod_three():
    z3 = fd.cyclic_group(3)
    graph = fd.schreier_graph(2, [1, 1], z3)
    index, rank = graph.index, graph.rank
    assert (index, rank) == (3, 4)  # 1 + 3 (2 - 1)


def test_schreier_graph_permutation_action():
    s3 = fd.symmetric_group(3)
    graph = fd.schreier_graph(2, [1, 4], s3)
    for k in range(graph.n):
        col = graph.edges[:, k]
        assert sorted(col) == list(range(graph.index))  # a permutation


def test_schreier_nielsen_formula_random_homs():
    rng = np.random.default_rng(0)
    tables = [fd.cyclic_group(5), fd.symmetric_group(3),
              fd.direct_product(fd.cyclic_group(2), fd.cyclic_group(4))]
    for _ in range(10):
        table = tables[rng.integers(len(tables))]
        n = int(rng.integers(2, 4))
        images = [int(rng.integers(table.order)) for _ in range(n)]
        graph = fd.schreier_graph(n, images, table)
        assert graph.rank == 1 + graph.index * (n - 1)
        assert all(evaluate_word(w, images, table) == table.identity
                   for w in graph.subgroup_generators)


def reduce_word(word):
    """Freely reduce a word (cancel adjacent inverse letter pairs): the oracle
    for the words `schreier_graph` builds by concatenation alone."""
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def test_schreier_generators_reduce():
    z2 = fd.cyclic_group(2)
    graph = fd.schreier_graph(2, [1, 1], z2)
    for w in graph.subgroup_generators:
        assert reduce_word(w) == w


def _schreier_three_passes(n, images, table):
    """`schreier_graph` as it was: the BFS, then the edge table, then the
    non-tree edges through a set of tree edges."""
    from freedim.groups import word_inverse

    order, pos, transversal = [table.identity], {table.identity: 0}, [()]
    tree_edges, head = set(), 0
    while head < len(order):
        for k in range(n):
            w = table.mul(order[head], images[k])
            if w not in pos:
                pos[w] = len(order)
                order.append(w)
                transversal.append(reduce_word(transversal[head] + (k + 1,)))
                tree_edges.add((head, k))
        head += 1
    edges = np.zeros((len(order), n), dtype=int)
    for i, v in enumerate(order):
        for k in range(n):
            edges[i, k] = pos[table.mul(v, images[k])]
    gens = tuple(reduce_word(transversal[i] + (k + 1,) + word_inverse(transversal[edges[i, k]]))
                 for i in range(len(order)) for k in range(n) if (i, k) not in tree_edges)
    return tuple(order), edges, tuple(transversal), gens


def _drawn_homs():
    """(n, images, table): four random homomorphisms from each free group
    of rank 1, 2 and 3 onto each of five tables."""
    rng = np.random.default_rng(3)
    tables = [fd.cyclic_group(1), fd.cyclic_group(5), fd.symmetric_group(3),
              fd.symmetric_group(4), fd.direct_product(fd.cyclic_group(2), fd.cyclic_group(4))]
    for table in tables:
        for n in (1, 2, 3):
            for _ in range(4):
                yield n, [int(rng.integers(table.order)) for _ in range(n)], table


def test_schreier_graph_matches_three_pass_reference():
    for n, images, table in _drawn_homs():
        graph = fd.schreier_graph(n, images, table)
        cosets, edges, transversal, gens = _schreier_three_passes(n, images, table)
        assert graph.cosets == cosets and graph.transversal == transversal
        assert graph.edges.dtype == edges.dtype and np.array_equal(graph.edges, edges)
        assert graph.subgroup_generators == gens
        assert all(evaluate_word(w, images, table) == table.identity for w in gens)


def test_schreier_graph_emits_the_rank_formula_count():
    # of the m n edges the walk scans, the m - 1 tree edges emit nothing
    # and every other edge emits one generator
    for n, images, table in _drawn_homs():
        graph = fd.schreier_graph(n, images, table)
        assert len(graph.subgroup_generators) == 1 + len(graph.cosets) * (n - 1)


def test_permutation_cycle_parsing():
    assert fd.permutation_from_cycles("(1 2)", 3) == (1, 0, 2)
    assert fd.permutation_from_cycles("(1 2 3)", 3) == (1, 2, 0)
    assert fd.permutation_from_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert fd.permutation_from_cycles("()", 3) == (0, 1, 2)
    with pytest.raises(fd.FreedimError):
        fd.permutation_from_cycles("(1 5)", 3)
    with pytest.raises(fd.FreedimError):
        fd.permutation_from_cycles("1 2)", 3)


def test_cycle_images_match_index_images():
    s3 = fd.symmetric_group(3)
    idx = fd.symmetric_element_index(fd.permutation_from_cycles("(1 2)", 3), 3)
    assert s3.mul(idx, idx) == s3.identity  # a transposition squares to e
    by_cycles = fd.schreier_graph(2, [idx, idx], s3)
    assert (by_cycles.index, by_cycles.rank) == (2, 3)  # image has order 2, kernel rank 3


# ---------------------------------------------------------------------------
# dimension formula inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_betti_formula_free_groups(k):
    assert fd.betti_delta_formula(fd.BettiInput.free_group(k)) == float(k)


def test_betti_formula_finite_groups():
    for order in (1, 2, 3, 4, 6, 8):
        val = fd.betti_delta_formula(fd.BettiInput.finite_group(order))
        assert abs(val - (1 - 1 / order)) <= 1e-15


def test_betti_formula_trivial_group():
    assert fd.betti_delta_formula(fd.BettiInput.finite_group(1)) == 0.0


def quaternion_group() -> fd.FiniteGroupTable:
    """Q8 = {+-1, +-i, +-j, +-k} from the product table of its 2 x 2 matrices."""
    one, i = np.eye(2), np.diag([1j, -1j])
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    units = [s * u for u in (one, i, j, i @ j) for s in (1, -1)]
    mult = [[next(c for c, w in enumerate(units) if np.allclose(u @ v, w)) for v in units]
            for u in units]
    return fd.from_mult_table(mult)


def diagonal_orbits(table, generators) -> int:
    """Orbits of (a, b) -> (ga, gb) on G x G for g in `generators`, by union-find."""
    o = table.order
    parent = list(range(o * o))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        for a in range(o):
            for b in range(o):
                parent[root(a * o + b)] = root(table.mul(g, a) * o + table.mul(g, b))
    return len({root(x) for x in range(o * o)})


def conjugacy_classes(table) -> int:
    o = table.order
    return len({frozenset(table.mul(table.mul(g, a), table.inv(g)) for g in range(o))
                for a in range(o)})


def test_cross_validation_formula_vs_regular_rep():
    # the exact certificate of the paper's finite-group value: Delta = 1 - 1/|G|,
    # Schur's multiplicities n_i n_k - [i = k], one block per conjugacy class,
    # and 1 - Delta counted as orbits of the generators on G x G
    groups = {f"Z{n}": fd.cyclic_group(n) for n in range(1, 9)}
    groups.update({
        "V4": fd.direct_product(fd.cyclic_group(2), fd.cyclic_group(2)),
        "S3": fd.symmetric_group(3),
        "C2xS3": fd.direct_product(fd.cyclic_group(2), fd.symmetric_group(3)),
        "Q8": quaternion_group(),
        "S4": fd.symmetric_group(4),
    })
    for name, table in groups.items():
        o = table.order
        alg = fd.regular_rep_algebra(table)
        rep = fd.delta_report(alg)
        formula = fd.betti_delta_formula(fd.BettiInput.finite_group(o))
        n = np.array(alg.block_sizes)
        assert rep.Delta == 1 - Fraction(1, o), name
        assert Fraction(formula).limit_denominator(o) == rep.Delta, name
        np.testing.assert_array_equal(rep.multiplicities, np.outer(n, n) - np.eye(len(n)),
                                      err_msg=name)
        assert len(n) == conjugacy_classes(table) and int(n @ n) == o, name
        orbits = diagonal_orbits(table, minimal_generating_set(table))
        assert 1 - rep.Delta == Fraction(orbits, o * o), name


# ---------------------------------------------------------------------------
# the counterexample
# ---------------------------------------------------------------------------

def test_counterexample_values():
    rep = fd.counterexample_report()
    assert rep["liminf_delta"] == 2.0
    assert rep["limit"]["delta"] == 3.0
    assert rep["limit"]["kernel_index"] == 2
    assert rep["limit"]["kernel_rank"] == 3
    assert rep["limit"]["kernel_verified"]
    assert rep["strict_drop"]
    assert rep["verdict"] == "liminf delta = 2 < 3 = delta(limit)"


def test_counterexample_norm_bound_at_100():
    rep = fd.counterexample_report(k_values=[100])
    assert rep["per_k"][0]["shrink_norm_bound"] == 0.01


def test_counterexample_norm_bound_past_float_range():
    # 1.0 / k raised OverflowError for k past 1e308
    rep = fd.counterexample_report(k_values=[10**400])
    assert rep["per_k"][0]["shrink_norm_bound"] == 0.0


def test_counterexample_per_k_constant():
    rep = fd.counterexample_report(k_values=[1, 2, 3, 4, 5])
    assert all(row["delta"] == 2.0 for row in rep["per_k"])
