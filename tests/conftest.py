import contextlib
import re
import sys

import numpy as np
import pytest

import freedim as fd
from freedim.algebra import _block_ranges, _frame, _unit_map, unit_scaled, word_span
from freedim.derivations import _xi, derivation_well_defined

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def embed_c_m2(c, m):
    """c (+) m inside the 3x3 carrier of C (+) M2."""
    out = np.zeros((3, 3), dtype=complex)
    out[0, 0] = c
    out[1:, 1:] = m
    return out


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2.0


def section_algebra(section):
    """build_algebra on a config's algebra section (matrices of [re, im] pairs),
    read as the CLI reads it."""
    gens = [np.asarray(g, dtype=float) for g in section["generators"]]
    return fd.build_algebra(section["blocks"], section["weights"],
                            [g[:, :, 0] + 1j * g[:, :, 1] for g in gens],
                            labels=section.get("labels"))


def random_block_algebra(shape, seed):
    """A generic self-adjoint pair on the given blocks, with random weights."""
    rng = np.random.default_rng(seed)
    N = sum(shape)
    gens = []
    for _ in range(2):
        g = np.zeros((N, N), dtype=complex)
        start = 0
        for n in shape:
            g[start:start + n, start:start + n] = random_hermitian(rng, n)
            start += n
        gens.append(g)
    w = rng.uniform(0.5, 1.5, len(shape))
    return fd.build_algebra(shape, list(w / w.sum()), gens)


def svd_block_ranks(K, algebra):
    """Reference rule for dim_C(z_i K z_j): the numerical rank of each block
    slice of the basis rows, with the relative cutoff RANK_TOL floored at the
    ambient scale, so that an all-noise block has rank zero."""
    from freedim.algebra import block_offsets
    from freedim.tolerances import RANK_TOL

    ranges = block_offsets([n * n for n in algebra.block_sizes])
    r = K.complex_dim
    ranks = np.zeros((len(ranges), len(ranges)), dtype=int)
    if r == 0:
        return ranks
    for i, (si, ti) in enumerate(ranges):
        for j, (sj, tj) in enumerate(ranges):
            comp = K.basis[:, :, si:ti, sj:tj].reshape(r, -1)
            s = np.linalg.svd(comp, compute_uv=False)
            cut = RANK_TOL * max(1.0, float(s[0])) if s.size else RANK_TOL
            ranks[i, j] = int(np.sum(s > cut))
    return ranks


def generated_dim(block_sizes, generators):
    """Dimension of the span of the words in the generators, counted as
    `build_algebra` and `blockify_subalgebra` count it."""
    mats = [np.asarray(g, dtype=complex) for g in generators]
    return word_span(tuple(block_sizes), unit_scaled(mats)).shape[0]


def generates(alg):
    """Whether the words in the algebra's generators span all of it."""
    return generated_dim(alg.block_sizes, alg.generators) == alg.dim


def evaluate_word(word, images, table):
    """Image of a free word under the homomorphism sending generator k to
    images[k-1]: the oracle for the kernel membership that `schreier_graph`
    states for its generators."""
    out = table.identity
    for letter in word:
        g = images[abs(letter) - 1]
        out = table.mul(out, table.inv(g) if letter < 0 else g)
    return out


def coords(gns, x):
    """Coordinates <x, b_m> of an algebra element in the orthonormal basis."""
    return np.einsum("mab,ba,b->m", gns.basis, x, gns._wvec, optimize=True)


def element(gns, v):
    """Algebra element with the given coordinates."""
    return np.einsum("m,mab->ab", v, gns.basis)


def basis_left_mults(gns):
    """(D, D, D) left multiplications by the basis elements, from the
    matrix-unit frame and zero off each element's block: the dense stack
    that the package no longer builds (`GnsStructure.commutant_actions`
    gives it block by block, transposed)."""
    D = gns.dim
    out = np.zeros((D, D, D), dtype=complex)
    for (s, t), (S, T), n in _block_ranges(gns.algebra.block_sizes):
        out[S:T, S:T, S:T] = _frame(gns.basis[S:T, s:t, s:t], _unit_map(n))
    return out


def cocycle_map(gns, generators, Y):
    """([Y, L_{X_1}], ..., [Y, L_{X_n}]) as an (n, D, D) array."""
    return np.array([Y @ L - L @ Y for L in gns.left_mults(generators)])


def conjugate_variable(gns, targets):
    """The vector xi with <xi, Q 1> = <P1, dT(Q)>_HS, or None when the
    derivation does not descend."""
    fit = derivation_well_defined(gns, targets)
    return _xi(gns, fit.map) if fit.well_defined else None


def make_c2():
    return fd.build_algebra([1, 1], [0.5, 0.5], [np.diag([0.0, 1.0]).astype(complex)])


def make_m2():
    return fd.build_algebra([2], [1.0], [SX.copy(), SZ.copy()])


def make_c1m2():
    return fd.build_algebra(
        [1, 2], [1 / 3, 2 / 3], [embed_c_m2(1.0, SX), embed_c_m2(0.0, SZ)]
    )


def invariant_complement(gns, K_small, K_big, n):
    """Orthogonal complement of K_small inside K_big (drops noise rows)."""
    rows = K_big.flat() - (K_big.flat() @ K_small.flat().conj().T) @ K_small.flat()
    norms = np.linalg.norm(rows, axis=1)
    rows = rows[norms > 1e-8]
    if rows.shape[0] == 0:
        return fd.hs_subspace(gns, np.zeros((0, n, gns.dim, gns.dim)))
    flat = fd.numerical_span(rows)
    return fd.hs_subspace(gns, flat.reshape(-1, n, gns.dim, gns.dim))


@pytest.fixture
def c2():
    return make_c2()


@pytest.fixture
def m2():
    return make_m2()


@pytest.fixture
def c1m2():
    return make_c1m2()


# The numerical builders that the CLI calls.  A config error raised after the
# first of them is a check that ran after numerical work had started.
NUMERICAL_BUILDERS = ("build_algebra", "blockify_subalgebra", "gns_structure", "cyclic_group",
                      "symmetric_group", "direct_product", "_known_group",
                      "regular_rep_algebra", "convergence_sweep", "schreier_graph",
                      "counterexample_report")
# the one check that waits: a subalgebra-mode dual's matrices are D x D for
# the D of the algebra that blockify_subalgebra builds
_SUBALGEBRA_SHAPE = re.compile(r"parameters\.dual\.(matrix|targets\[\d+\]) must be "
                               r"\d+ x \d+ on this algebra$")


@contextlib.contextmanager
def late_config_errors():
    """Spy on `freedim.cli`: yields a list that collects (builders called,
    message) for each ConfigError raised inside `cli.main` after a call into
    one of NUMERICAL_BUILDERS, but for the subalgebra-mode shape check."""
    import freedim.cli as cli
    from freedim.errors import ConfigError

    calls, late = [], []
    load_config, init = cli.load_config, ConfigError.__init__

    def fresh_load(*args, **kwargs):
        calls.clear()
        return load_config(*args, **kwargs)

    def spied(name, builder):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return builder(*args, **kwargs)
        return wrapper

    def spied_init(self, *args):
        init(self, *args)
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not cli.main.__code__:
            frame = frame.f_back
        waits = calls == ["blockify_subalgebra"] and _SUBALGEBRA_SHAPE.match(str(self))
        if frame is not None and calls and not waits:
            late.append((tuple(calls), str(self)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "load_config", fresh_load)
        patch.setattr(ConfigError, "__init__", spied_init)
        for name in NUMERICAL_BUILDERS:
            patch.setattr(cli, name, spied(name, getattr(cli, name)))
        yield late
