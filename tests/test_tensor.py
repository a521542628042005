from __future__ import annotations

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qmetro import bounds as gb
from qmetro import linalg, scenarios, schur, tensor
from qmetro.errors import (
    DimMismatch,
    DimensionOverflow,
    EnumerationOverflow,
    IncompleteBasis,
    KindMismatch,
)
from qmetro.linalg import dagger
from qmetro.logderiv import (
    compute_rld,
    compute_rld_fisher,
    reparametrize,
    sld_analysis,
)
from qmetro.random_instances import haar_unitary, random_linear_family
from qmetro.report import ReportConfig, build_report
from qmetro.scenarios import SIGMA1, SIGMA2, SIGMA3, build_scenario, parse_scenario
from qmetro.states import EvaluatedState, StateFamily, evaluate
from qmetro.tensor import (
    AlignEntry,
    OptimizeNorm,
    compute_fbar_im,
    compute_tp_exact,
    compute_tp_monte_carlo,
    limit_fim,
)


def reduced_shapes(st, p_list):
    """``(s, gens, served)`` per reduced shape, read off the groups that
    reduced_blocks yields: the shape's weights and flattened generators
    cut to its own dimension, and its blocks as (p, lambda, scale)."""
    for group in tensor.reduced_blocks(st, p_list):
        top = group.s.shape[1]
        for i, (mu, dim) in enumerate(zip(group.shapes, group.dims.tolist())):
            gens = group.gens[i].reshape(-1, top, top)[:, :dim, :dim]
            at = group.shape_of == i
            served = [
                (p, tuple(r + k for r in mu), scale)
                for p, k, scale in zip(group.p[at].tolist(), group.k[at].tolist(),
                                       group.scale[at].tolist())
            ]
            yield group.s[i, :dim], gens.reshape(len(gens), -1), served


def shape_image(st, gens, ops):
    """pi_mu(U+ A U) of one operator or a stack, from the flattened
    generators of one shape (reduced_shapes)."""
    ops = np.asarray(ops, dtype=complex)
    vecs = st.eigen.vectors
    dim = math.isqrt(gens.shape[1])
    rows = (dagger(vecs) @ ops @ vecs).reshape(-1, st.dim**2)
    return (rows @ gens).reshape(ops.shape[:-2] + (dim, dim))


def cp_at(st, ops, p):
    """C_p alone: the block walk over the one-element list [p]."""
    return tensor.block_sweep(st, ops, [p], cp=True)[p].cp


def cp_rld_at(st, rld_ops, p):
    """C_p^RLD of the tilde RLDs ``rld_ops`` alone, from the walk over [p]."""
    return tensor.block_sweep(st, rld_ops, [p], rld_ops=rld_ops)[p].cp_rld


class TestBuildCollective:
    def test_p1_identity_embedding(self, qubit_state):
        # At p = 1 the single block is the single copy in the eigenbasis of
        # rho: S pi(A) S has the spectrum of sqrt(rho) A sqrt(rho).
        st = qubit_state(0.2)
        _, _, tilde = sld_analysis(st)
        # one complex (n, d, d) stack, read as it is by every kernel
        ops = tensor._operator_stack(tilde, 3, 2, "the walk")
        assert ops.shape == (3, 2, 2) and ops.dtype == np.complex128
        assert np.array_equal(ops, np.array(tilde))
        [(s, gens, [served])] = list(reduced_shapes(st, [1]))
        p, shape, scale = served
        assert (p, shape) == (1, (1, 0))
        for op in tilde:
            block = scale * s[:, None] * shape_image(st, gens, op) * s
            direct = st.sqrt_rho @ op @ st.sqrt_rho
            assert np.allclose(np.linalg.eigvalsh(block), np.linalg.eigvalsh(direct), atol=1e-12)

    def test_p2_sigma3_sum(self, qubit_state):
        # sigma_3 summed over two sites has spectrum {2, 0, 0, -2}: the
        # triplet block carries {2, 0, -2}, the singlet {0}, read off the
        # reduced shapes (2, 0) and (0, 0) (sigma_3 is traceless).
        st = qubit_state(0.0)
        spectrum = []
        for _, gens, served in reduced_shapes(st, [2]):
            for _, shape, _ in served:
                image = shape_image(st, gens, SIGMA3)
                spectrum += list(np.linalg.eigvalsh(image)) * schur.multiplicity(shape)
        assert np.allclose(sorted(spectrum), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_collective_qfim_scales(self, qubit_state):
        # Oracle: the QFIM of rho^(x)p from the collective SLDs, read block
        # by block as sum_lambda Re Tr(S^2 pi(L_j) pi(L_k)), equals p F_Q.
        # The SLDs are not traceless, so pi_lambda shifts pi_mu by k Tr(L) I.
        st = qubit_state(0.0)
        slds, fisher, _ = sld_analysis(st)
        traces = np.trace(np.array(slds.ops), axis1=1, axis2=2)
        for p in (2, 3):
            fp = np.zeros((3, 3))
            for s, gens, served in reduced_shapes(st, [p]):
                for _, shape, scale in served:
                    x = shape_image(st, gens, slds.ops)
                    x = x + shape[-1] * traces[:, None, None] * np.eye(len(s))
                    fp += scale * np.real(np.einsum("i,jil,kli->jk", s**2, x, x))
            assert np.allclose(fp, p * fisher.f_q, atol=1e-10)

    def test_sqrt_rho_p(self, qubit_state):
        # The block weights are sqrt(rho^(x)p) in its eigenbasis: squared and
        # counted m_lambda times, they are the products of p eigenvalues.
        st = qubit_state(0.4)
        squares = []
        for s, _, served in reduced_shapes(st, [3]):
            for _, shape, scale in served:
                m = schur.multiplicity(shape)
                squares += list(scale * s**2 / m) * m
        direct = np.real(np.diag(linalg.kron_power(np.diag(st.eigen.values), 3)))
        assert np.allclose(sorted(squares), sorted(direct), atol=1e-12)

    def test_dimension_cap(self, qubit_state):
        st = qubit_state(0.0)
        # The largest block at p = 6 is the spin-3 irrep of dimension 7.
        with pytest.raises(DimensionOverflow):
            tensor.block_sweep(st, [SIGMA1], [6], dim_cap=6)
        tensor.block_sweep(st, [SIGMA1], [6], dim_cap=7)

    def test_operator_shapes_checked(self, qubit_state):
        # Ragged or wrongly sized operators are refused before any block
        # is built, as for C_p^RLD in the block walk.
        st = qubit_state(0.2)
        for ops in ([np.eye(2), np.eye(3)], [np.eye(3), np.eye(3)]):
            with pytest.raises(DimMismatch):
                tensor.block_sweep(st, ops, [1], cp=True)

    def test_builds_no_blocks(self, qutrit_state, cold_gt_cache):
        # The irrep blocks at p = 12 would take about 16 MB if stored; the
        # walk's checks read the partitions only, up to the refusal.
        st, _ = qutrit_state("qutrit8")
        _, _, tilde = sld_analysis(st)
        largest = max(schur.irrep_dim(shape) for shape in schur.partitions(12, st.dim))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionOverflow):
                tensor.block_sweep(st, tilde, [12], cp=True, dim_cap=largest - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_refusal_plans_nothing(self, qutrit_state, monkeypatch):
        # A refused sweep reads the partitions of its largest p alone: it
        # plans no walk, so no multiplicity of a smaller p is computed.
        st, _ = qutrit_state("qutrit8")
        _, _, tilde = sld_analysis(st)
        seen = []
        monkeypatch.setattr(tensor, "_log_multiplicities", lambda p, d: seen.append(p))
        with pytest.raises(DimensionOverflow):
            tensor.block_sweep(st, tilde, range(1, 201), cp=True)
        assert seen == []

    def test_cp_streams_blocks(self, qubit_state, cold_gt_cache):
        # Storing every block costs 16 n sum_lambda dim_lambda^2 bytes
        # (about 63 MiB here); streaming keeps one block alive at a time.
        st = qubit_state(0.5)
        _, _, tilde = sld_analysis(st)
        p = 200
        stored = 16 * len(tilde) * sum(
            schur.irrep_dim(shape) ** 2 for shape in schur.partitions(p, st.dim)
        )
        tracemalloc.start()
        try:
            cp_at(st, tilde, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stored / 4

    def test_cp_working_set_independent_of_pairs(self, qutrit_state):
        # qutrit8 has 28 pairs; C_p holds the d^2 generators and one stack
        # of pair images (STACK_BYTES) of the largest block, not one per pair.
        st, _ = qutrit_state("qutrit8")
        _, _, tilde = sld_analysis(st)
        p = 12
        largest = max(schur.irrep_dim(shape) for shape in schur.partitions(p, st.dim))
        tracemalloc.start()
        try:
            cp_at(st, tilde, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 16 * largest**2

    def test_auto_align_working_set(self, qutrit_state):
        # All 28 qutrit8 pairs: the d^2 generators and the 28 pair images
        # of the largest block, plus one stack's eigensolve, about 42
        # matrices.  Keeping the real generators beside the complex ones
        # read 46.2.
        st, _ = qutrit_state("qutrit8")
        _, _, tilde = sld_analysis(st)
        p = 12
        largest = max(schur.irrep_dim(shape) for shape in schur.partitions(p, st.dim))
        tracemalloc.start()
        try:
            tensor.block_sweep(st, tilde, [p], fbar=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45 * 16 * largest**2

    def test_report_pass_working_set(self, qutrit_state):
        # A cp,fbar report at p = 12 walks the blocks once for C_p and all
        # 28 AutoAlign candidates: measured 42.4 largest-block matrices,
        # against 41.8 for the two separate passes it replaces.  Keeping a
        # block's pair images alive into the next block reads 63.9.
        st, _ = qutrit_state("qutrit8")
        p = 12
        largest = max(schur.irrep_dim(shape) for shape in schur.partitions(p, st.dim))
        tracemalloc.start()
        try:
            build_report(st, ReportConfig(bounds=("cp", "fbar"), p_list=(p,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45 * 16 * largest**2

    def test_rld_sweep_working_set(self, qubit_state):
        # A C_p^RLD sweep stacks the products of every block a shape
        # serves into eigvalsh calls of about STACK_BYTES: measured 19.4
        # largest-block matrices over p = 1..60 (19.9 with one call per
        # block), and 49.2 with one unchunked stack per shape.
        st = qubit_state(0.5)
        _, fisher, tilde = sld_analysis(st)
        rlds = compute_rld(st)
        rld_ops = reparametrize(rlds, compute_rld_fisher(st, rlds, fisher))
        top = 60
        largest = max(schur.irrep_dim(shape) for shape in schur.partitions(top, st.dim))
        tensor.block_sweep(st, tilde, range(1, top + 1), rld_ops)  # the kept tables
        tracemalloc.start()
        try:
            tensor.block_sweep(st, tilde, range(1, top + 1), rld_ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 16 * largest**2


def literal_site_sum(a, w, p):
    """Dense oracle: the Kronecker sum of embeddings w^(x)r (x) a (x) w^(x)(p-r-1)."""
    total = 0
    for r in range(p):
        total = total + functools.reduce(np.kron, [w] * r + [a] + [w] * (p - r - 1))
    return total


def dense_fu_imag_parts(st, ops, p, basis):
    """Dense oracle: Im <u_q|S L_jp L_kp S|u_q> per column u_q of ``basis``,
    from S = sqrt(rho)^(x)p and the literal Kronecker sums L_jp."""
    w = linalg.kron_power(st.sqrt_rho, p) @ basis
    cols = np.array([literal_site_sum(op, np.eye(st.dim), p) @ w for op in ops])
    return np.imag(np.einsum("jaq,kaq->qjk", np.conj(cols), cols))


def _dense_aggregate(parts, signs):
    agg = np.tensordot(signs, parts, axes=1)
    return (agg - agg.T) / 2.0


_SITE_CASES = [(p, d) for d in (2, 3, 4) for p in range(1, 9) if d**p <= 256]


class TestSiteSum:
    """The supplied-basis F-bar applies sqrt(rho) and each L_j one site at
    a time; the oracle builds the d^p x d^p Kronecker sums."""

    @pytest.mark.parametrize("p, d", _SITE_CASES)
    def test_matches_literal_kronecker_sum(self, p, d):
        rng = np.random.default_rng(100 * d + p)
        st = evaluate(random_linear_family(d, 3, rng), np.zeros(3))
        slds, _, tilde = sld_analysis(st)
        basis = haar_unitary(d**p, rng)
        count = basis.shape[1]
        # Raw SLDs as well: every strategy reads the operators it is given.
        for ops in (tilde, slds.ops):
            parts = dense_fu_imag_parts(st, ops, p, basis)
            tol = 1e-12 * float(np.max(np.abs(parts)))
            got = tensor._fu_imag_parts(st, np.asarray(ops), p, basis)
            assert np.allclose(got, parts, rtol=0, atol=tol)
            explicit = rng.choice([-1.0, 1.0], size=count)
            strategies = [(list(explicit), explicit)]
            for j, k in ((0, 1), (1, 2)):
                a = parts[:, j, k]
                aligned = np.where(a < -1e-12 * np.max(np.abs(a)), -1.0, 1.0)
                strategies.append((AlignEntry(j, k), aligned))
            if count <= tensor.OPTIMIZE_MAX_VECTORS:
                # every pattern with s_0 = +1, scored as OptimizeNorm scores them
                patterns = [np.array((1.0,) + rest)
                            for rest in itertools.product((1.0, -1.0), repeat=count - 1)]
                norms = [np.linalg.norm(_dense_aggregate(parts, s)) for s in patterns]
                strategies.append((OptimizeNorm(), patterns[int(np.argmax(norms))]))
            for signs, expected in strategies:
                fb = compute_fbar_im(st, ops, p, basis, signs)
                assert np.array_equal(fb.meta["signs"], expected)
                ref = _dense_aggregate(parts, expected)
                assert np.allclose(fb.entries, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    def test_dimension_cap(self, qubit_state, cold_tables, monkeypatch):
        # 2^15 computational vectors exceed the Kronecker-power cap (the
        # largest block, 16 rows, would pass the block cap); the basis is
        # refused before any of it is built.
        st = qubit_state(0.0)
        built = []
        monkeypatch.setattr(np, "kron", lambda *args: built.append(args))
        with pytest.raises(DimensionOverflow):
            compute_fbar_im(st, [SIGMA1], 15, None, AlignEntry(0, 0))
        assert built == [] and tensor._bases == {}


def dense_pair_norms(st, ops, p, rld=False):
    """Dense oracle: 1/2 ||S [L_j, L_k] S||_1, or with ``rld`` the unclipped
    1/2 ||S (L_j L_k+ - L_k L_j+) S||_1, from d^p x d^p matrices."""
    s = linalg.kron_power(st.sqrt_rho, p)
    big = [literal_site_sum(op, np.eye(st.dim), p) for op in ops]
    out = np.zeros((len(ops), len(ops)))
    for j, k in itertools.combinations(range(len(ops)), 2):
        if rld:
            m = big[j] @ dagger(big[k]) - big[k] @ dagger(big[j])
        else:
            m = big[j] @ big[k] - big[k] @ big[j]
        out[j, k] = out[k, j] = 0.5 * linalg.trace_norm(s @ m @ s)
    return out


def dense_auto_align(st, ops, p, j, k):
    """Dense oracle for AutoAlign(j, k) F-bar_Im: sign-aligned Im F_u over
    the eigenbasis of S [L_j, L_k] S; ties within 1e-12 of the largest
    |alignment value| take "as is"."""
    s = linalg.kron_power(st.sqrt_rho, p)
    big = [literal_site_sum(op, np.eye(st.dim), p) for op in ops]
    vals, vecs = np.linalg.eigh(-1j * s @ (big[j] @ big[k] - big[k] @ big[j]) @ s)
    a = vals / 2.0
    signs = np.where(a < -1e-12 * np.max(np.abs(a)), -1.0, 1.0)
    cols = np.array([op @ s @ vecs for op in big])  # L_x S u_q, L_x Hermitian
    im = np.imag(np.einsum("xiq,q,yiq->xy", np.conj(cols), signs, cols))
    return (im - im.T) / 2.0


def _block_case(name):
    if name == "qubit3":
        fam = build_scenario(parse_scenario("qubit3", delta=0.5))
    elif name == "qutrit8":
        fam = build_scenario(parse_scenario("qutrit8", delta=0.1))
    else:
        d = int(name[1:])
        fam = random_linear_family(d, 3, np.random.default_rng(500 + d))
    return evaluate(fam, np.zeros(fam.n))


_BLOCK_CASES = [
    (name, p)
    for name, d in (("d2", 2), ("d3", 3), ("d4", 4), ("qubit3", 2), ("qutrit8", 3))
    for p in range(1, 9)
    if d**p <= 256
]


def _scale_tol(ref):
    return 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def _assert_matches_dense(st, tilde, rld_ops, p):
    # Each consumer alone, against the dense oracles, and the joint pass
    # that build_report makes: its C_p comes from the AutoAlign
    # eigenvalues, everything else equals the lone consumers bit for bit.
    pairs = list(itertools.combinations(range(len(tilde)), 2))
    joint = tensor.block_sweep(st, tilde, [p], rld_ops, cp=True, fbar=True)[p]
    ref = dense_pair_norms(st, tilde, p)
    cp = cp_at(st, tilde, p).entries
    assert np.allclose(cp, ref, rtol=0, atol=_scale_tol(ref))
    assert np.allclose(joint.cp.entries, cp, rtol=0, atol=1e-14 * np.max(np.abs(cp)))
    alone = tensor.block_sweep(st, tilde, [p], fbar=True)[p].candidates
    assert len(joint.candidates) == len(alone) == len(pairs)
    for (j, k), cand, got in zip(pairs, joint.candidates, alone):
        ref = dense_auto_align(st, tilde, p, j, k)
        assert got.meta == {"strategy": f"auto_align({j},{k})"}
        assert np.allclose(got.entries, ref, rtol=0, atol=_scale_tol(ref))
        assert np.array_equal(cand.entries, got.entries) and cand.meta == got.meta
        assert cand.entries[j, k] == pytest.approx(cp[j, k], rel=0, abs=_scale_tol(cp))
    ref = np.minimum(dense_pair_norms(st, rld_ops, p, rld=True), 2.0 * p)
    got = cp_rld_at(st, rld_ops, p).entries
    assert np.allclose(got, ref, rtol=0, atol=_scale_tol(ref))
    assert np.array_equal(joint.cp_rld.entries, got)


class TestSchur:
    @pytest.mark.parametrize("shape", [(3, 1, 0), (2, 1, 1), (4, 2, 1, 0)])
    def test_gl_commutation_relations(self, shape):
        # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb
        _, e = schur.gt_basis(shape)
        assert e.shape[2] == schur.irrep_dim(shape)
        for a, b, c, d in itertools.product(range(len(shape)), repeat=4):
            lhs = e[a, b] @ e[c, d] - e[c, d] @ e[a, b]
            rhs = (b == c) * e[a, d] - (d == a) * e[c, b]
            assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_blocks_fill_the_tensor_power(self, d):
        for p in range(1, 9):
            shapes = schur.partitions(p, d)
            assert sum(schur.multiplicity(s) * schur.irrep_dim(s) for s in shapes) == d**p

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_partitions_and_multiplicities_match_references(self, d):
        # References: every nonincreasing d-tuple summing to p, in
        # descending lexicographic order, and the hook-length product.
        def hooks(shape):
            cols = [sum(1 for r in shape if r > c) for c in range(shape[0])]
            out = 1
            for i, row in enumerate(shape):
                for c in range(row):
                    out *= (row - c - 1) + (cols[c] - i - 1) + 1
            return out

        for p in range(13):
            brute = sorted(
                (t for t in itertools.product(range(p + 1), repeat=d)
                 if sum(t) == p and all(a >= b for a, b in zip(t, t[1:]))),
                reverse=True,
            )
            assert schur.partitions(p, d) == brute
            for shape in brute:
                assert schur.multiplicity(shape) == math.factorial(p) // hooks(shape)

    def test_basis_is_shared_and_read_only(self, cold_gt_cache):
        weights, gens = schur.gt_basis((2, 1, 0))
        assert schur.gt_basis((2, 1, 0))[1] is gens
        for array in (weights, gens):
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_basis_over_budget_is_returned_not_kept(self, cold_gt_cache, monkeypatch):
        big = schur._build_gt_basis((2, 1, 0))
        monkeypatch.setattr(schur, "CACHE_BYTES", sum(a.nbytes for a in big))
        schur.gt_basis((1, 0))  # kept: the budget now lacks its bytes
        weights, gens = schur.gt_basis((2, 1, 0))
        assert np.array_equal(weights, big[0]) and np.array_equal(gens, big[1])
        assert list(schur._cache) == [(1, 0)]
        assert schur.gt_basis((2, 1, 0))[1] is not gens

    def test_zero_value_gives_zero_weight(self):
        weights, _ = schur.gt_basis((2, 1))
        log_w = schur.log_diag_power(weights, np.array([1.0, 0.0]))
        assert not np.any(np.isnan(log_w))
        assert np.array_equal(np.exp(log_w), np.where(weights[:, 1] > 0, 0.0, 1.0))


    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_reduced_shape_identities(self, d):
        # V_lambda = V_mu (x) det^k with mu = lambda - k(1, ..., 1), k =
        # lambda_d: pattern by pattern the GT bases agree, the weights
        # shift by k and pi(E_aa) by k I, so Pi_lambda(D) = det(D)^k Pi_mu(D).
        # With a zero value, k >= 1 gives -inf (a zero weight), never NaN.
        values = (np.array([0.5, 0.3, 0.15, 0.05])[:d], np.array([0.6, 0.0, 0.3, 0.1])[:d])
        for p in range(1, 9):
            for shape in schur.partitions(p, d):
                k = shape[-1]
                w_lam, g_lam = schur.gt_basis(shape)
                w_mu, g_mu = schur.gt_basis(tuple(r - k for r in shape))
                assert np.array_equal(w_lam, w_mu + k)
                shift = k * np.eye(d)[:, :, None, None] * np.eye(len(w_mu))
                assert np.array_equal(g_lam, g_mu + shift)
                for v in values:
                    got = schur.log_diag_power(w_lam, v)
                    with np.errstate(divide="ignore"):
                        det = k * np.sum(np.log(v)) if k else 0.0
                    expected = schur.log_diag_power(w_mu, v) + det
                    assert not np.any(np.isnan(got))
                    assert np.array_equal(np.isneginf(got), np.isneginf(expected))
                    if k and not v.all():
                        assert np.all(np.isneginf(got))
                    finite = np.isfinite(expected)
                    assert np.allclose(got[finite], expected[finite], rtol=1e-14, atol=1e-14)


def per_block_cp(st, ops, p):
    """Oracle: C_p from every irrep block lambda of p with its own GT
    basis and weight sqrt(m_lambda) Pi_lambda(sqrt D), no reduced shapes."""
    sqrt_d = np.sqrt(np.where(st.eigen.values > st.rank_tol, st.eigen.values, 0.0))
    vecs = st.eigen.vectors
    out = np.zeros((len(ops), len(ops)))
    for shape in schur.partitions(p, st.dim):
        weights, gens = schur.gt_basis(shape)
        s = np.exp(0.5 * math.log(schur.multiplicity(shape))
                   + schur.log_diag_power(weights, sqrt_d))
        for j, k in itertools.combinations(range(len(ops)), 2):
            comm = -1j * (ops[j] @ ops[k] - ops[k] @ ops[j])
            img = s[:, None] * np.tensordot(dagger(vecs) @ comm @ vecs, gens, 2) * s
            out[j, k] += 0.5 * np.sum(np.abs(np.linalg.eigvalsh(img)))
    return out + out.T


def _rank_deficient_qutrit():
    # rank 2; the derivatives leave the kernel-kernel block empty, so the
    # SLDs exist, but the RLDs do not.
    gens = [np.zeros((3, 3), dtype=complex) for _ in range(3)]
    gens[0][0, 1] = gens[0][1, 0] = 0.5
    gens[1][0, 2], gens[1][2, 0] = -0.5j, 0.5j
    gens[2][1, 2] = gens[2][2, 1] = 0.5
    return evaluate(StateFamily.linear(np.diag([0.6, 0.4, 0.0]).astype(complex), gens),
                    np.zeros(3))


_SWEEP_CASES = [(d, n) for d in (2, 3, 4) for n in (2, 3)] + [("rank2", 3)]


class TestSweep:
    """One walk over the reduced shapes of a p list against a walk per p."""

    @pytest.mark.parametrize("d, n", _SWEEP_CASES)
    def test_sweep_matches_single_p(self, d, n):
        rng = np.random.default_rng(900 + 10 * (3 if d == "rank2" else d) + n)
        if d == "rank2":
            st = _rank_deficient_qutrit()
            rld_ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                       for _ in range(n)]
        else:
            st = evaluate(random_linear_family(d, n, rng), np.zeros(n))
        _, fisher, tilde = sld_analysis(st)
        if d != "rank2":
            rlds = compute_rld(st)
            rld_ops = reparametrize(rlds, compute_rld_fisher(st, rlds, fisher))
        top = {2: 10, 3: 7, 4: 5}[st.dim]
        p_list = list(rng.permutation(np.arange(1, top + 1))) + [2]  # any order, repeats
        sweep = tensor.block_sweep(st, tilde, p_list, rld_ops, cp=True, fbar=True)
        assert sorted(sweep) == list(range(1, top + 1))
        for p in range(1, top + 1):
            single = tensor.block_sweep(st, tilde, [p], rld_ops, cp=True, fbar=True)[p]
            got = sweep[p]
            matrices = [(got.cp, single.cp), (got.cp_rld, single.cp_rld)]
            for a, b in matrices + list(zip(got.candidates, single.candidates)):
                assert a.p == b.p == p and a.meta == b.meta
                scale = float(np.max(np.abs(b.entries)))
                assert np.allclose(a.entries, b.entries, rtol=0, atol=1e-13 * scale)
            ref = per_block_cp(st, tilde, p)
            assert np.allclose(got.cp.entries, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
            if st.support_rank < st.dim and st.dim**p <= 81:
                # det(D) = 0: a block with lambda_d >= 1 is zero, and the
                # candidates still match the dense oracle.
                pairs = itertools.combinations(range(n), 2)
                for (j, k), cand in zip(pairs, got.candidates):
                    ref = dense_auto_align(st, tilde, p, j, k)
                    assert np.allclose(cand.entries, ref, rtol=0, atol=_scale_tol(ref))

    def test_p_list_within_collective(self, qubit_state):
        st = qubit_state(0.5)
        _, _, tilde = sld_analysis(st)
        for bad in ([0, 2], [3, -1]):
            with pytest.raises(KindMismatch, match="copies count must be >= 1"):
                tensor.block_sweep(st, tilde, bad, cp=True)
        # an empty list walks no block, so no cap refuses it
        assert tensor.block_sweep(st, tilde, [], cp=True, dim_cap=1) == {}

    def test_qubit_closed_form_to_200(self, qubit_state):
        st = qubit_state(0.0)
        _, _, tilde = sld_analysis(st)
        sweep = tensor.block_sweep(st, tilde, range(1, 201), cp=True)
        for p in range(1, 201):
            closed = scenarios.qubit_cp_closed(p).entries
            assert np.allclose(sweep[p].cp.entries, closed, rtol=1e-12, atol=0)

    def test_qutrit8_closed_form(self, qutrit_state):
        st, spec = qutrit_state("qutrit8")
        _, _, tilde = sld_analysis(st)
        sweep = tensor.block_sweep(st, tilde, range(1, 11), cp=True)
        for p in range(1, 11):
            closed = scenarios.qutrit_cp_closed(spec, p).entries
            assert np.allclose(sweep[p].cp.entries, closed, rtol=0,
                               atol=1e-12 * np.max(np.abs(closed)))


class TestBlockEngine:
    @pytest.mark.parametrize("name, p", _BLOCK_CASES)
    def test_matches_dense_reference(self, name, p):
        st = _block_case(name)
        _, fisher, tilde = sld_analysis(st)
        rlds = compute_rld(st)
        rld_tilde = reparametrize(rlds, compute_rld_fisher(st, rlds, fisher))
        _assert_matches_dense(st, tilde, rld_tilde, p)

    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_rank_deficient_state(self, p):
        # A zero eigenvalue of rho must give zero block weight, not NaN.
        # The RLD does not exist for this pure family (the derivatives
        # leak outside range(rho)), so C_p^RLD is checked on complex
        # operators of the same state.
        fam = StateFamily.linear(np.diag([1.0, 0.0]), [SIGMA1 / 2, SIGMA2 / 2])
        st = evaluate(fam, np.zeros(2))
        _, _, tilde = sld_analysis(st)
        rng = np.random.default_rng(11)
        rld_ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
        _assert_matches_dense(st, tilde, rld_ops, p)

    @pytest.mark.parametrize("p", [20, 50, 100])
    def test_qubit_closed_form(self, qubit_state, p):
        st = qubit_state(0.0)
        _, _, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, p)
        assert np.allclose(cp.entries, scenarios.qubit_cp_closed(p).entries, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("p", [10, 15])
    def test_qutrit_closed_form(self, qutrit_state, p):
        st, spec = qutrit_state("qutrit:1,2,5")
        _, _, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, p)
        closed = scenarios.qutrit_cp_closed(spec, p)
        assert np.allclose(cp.entries, closed.entries, rtol=0, atol=1e-10)

    def test_auto_align_reproduces_cp_entry_at_large_p(self, qubit_state):
        st = qubit_state(0.5)
        _, _, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, 40).entries[0, 1]
        fb = tensor.block_sweep(st, tilde, [40], fbar=True)[40].candidates[0].entries[0, 1]
        assert fb == pytest.approx(cp, rel=1e-10)

    @pytest.mark.parametrize("name, p", [("qubit3", 5), ("qutrit8", 3), ("d4", 2), ("qutrit8", 8)])
    def test_candidates_match_single_pairs(self, name, p, monkeypatch):
        # All pairs share one stacked eigensolve per block at qutrit8
        # p = 3, and the largest blocks at p = 8 (dimensions 42 to 63)
        # split them into stacks of 9 to 4; each candidate equals the one
        # solved alone, in a stack of one pair.
        st = _block_case(name)
        _, _, tilde = sld_analysis(st)
        cands = tensor.block_sweep(st, tilde, [p], fbar=True)[p].candidates
        assert len(cands) == len(tilde) * (len(tilde) - 1) // 2
        monkeypatch.setattr(tensor, "STACK_BYTES", 1)
        singles = tensor.block_sweep(st, tilde, [p], fbar=True)[p].candidates
        for cand, single in zip(cands, singles, strict=True):
            assert np.array_equal(cand.entries, single.entries)
            assert cand.meta == single.meta

    def test_rld_blocks_must_match(self):
        # The walk reads the RLD images off the shapes it walks for the
        # SLDs, so it needs one d x d operator per parameter.
        st = _block_case("qubit3")
        _, fisher, tilde = sld_analysis(st)
        rlds = compute_rld(st)
        rld_ops = reparametrize(rlds, compute_rld_fisher(st, rlds, fisher))
        with pytest.raises(DimMismatch):
            tensor.block_sweep(st, tilde, [3], rld_ops[:2])
        with pytest.raises(DimMismatch):
            tensor.block_sweep(st, tilde, [3], rld_ops[:2] + (np.eye(3),))

    @pytest.mark.parametrize("preset, delta", [
        ("qubit3", 0.5), ("qutrit8", 0.0), ("qutrit8", 0.1), ("qutrit:1,2,5", 0.3),
    ])
    def test_preset_pair_commutators_keep_exact_zeros(self, preset, delta):
        # A performance guard.  In the presets every pair commutator in
        # rho's eigenbasis is c E_ab + conj(c) E_ba, c (E_aa - E_bb) or 0,
        # and the block images built from it keep those exact zeros, on
        # which LAPACK deflates.
        # Fisher or tilde operators that round differently (F_Q as a
        # reshaped matmul instead of the einsum moves it by 2e-16) fill
        # them in: the values agree to 1e-15 and the sweeps slow down.
        fam = build_scenario(parse_scenario(preset, delta=delta))
        st = evaluate(fam, np.zeros(fam.n))
        _, _, tilde = sld_analysis(st)
        vecs = st.eigen.vectors
        rotated = dagger(vecs) @ np.asarray(tilde) @ vecs
        for j, k in itertools.combinations(range(fam.n), 2):
            prod = rotated[j] @ rotated[k]
            assert np.count_nonzero(prod - dagger(prod)) <= 2, (j, k)

    def test_sign_ties_are_relative(self):
        vals = np.array([1.0, -0.5, -1e-13, 0.0, 2e-13])
        expect = np.array([1.0, -1.0, 1.0, 1.0, 1.0])
        for scale in (1.0, 1e-15, 1e15):
            assert np.array_equal(tensor._signs_from_values(scale * vals), expect)

    @pytest.mark.parametrize("entries", [0, 1 << 60])
    def test_one_operator_walk(self, qubit_state, monkeypatch, entries):
        # n = 1 has no pair: zero 1 x 1 matrices and no candidates on
        # either path, and C_p^RLD has no pair either.
        monkeypatch.setattr(tensor, "GAUGE_MIN_ENTRIES", entries)
        st = qubit_state(0.5)
        walk = tensor.block_sweep(st, [SIGMA1], [1, 3, 8], [SIGMA2], cp=True, fbar=True)
        for p, got in walk.items():
            assert got.cp.entries.tolist() == [[0.0]] and got.cp.p == p
            assert got.cp_rld.entries.tolist() == [[0.0]]
            assert got.candidates == []
        coll = tensor.build_collective(st, [SIGMA1], 3)
        assert tensor.compute_cp(coll).entries.tolist() == [[0.0]]


def planted_line_family(d, n, rng):
    """A random family whose pair commutators each sit on one line of
    rho's eigenbasis or on its diagonal: rho is diagonal with distinct
    eigenvalues in shuffled order, and each generator is c E_ab + conj(c)
    E_ba, at most two per line, or traceless diagonal, at most d - 1."""
    lam = rng.permutation(np.sort(rng.random(d)) + np.arange(d))
    rho0 = np.diag(lam / lam.sum()).astype(complex)
    pool = [pair for pair in itertools.combinations(range(d), 2) for _ in range(2)]
    pool += [None] * (d - 1)
    gens = []
    for i in rng.choice(len(pool), size=n, replace=False):
        if pool[i] is None:
            v = rng.standard_normal(d)
            gen = np.diag(v - v.mean()).astype(complex)
        else:
            a, b = pool[i]
            gen = np.zeros((d, d), dtype=complex)
            gen[a, b] = complex(*rng.standard_normal(2))
            gen[b, a] = np.conj(gen[a, b])
        gens.append(gen)
    return StateFamily.linear(rho0, gens)


def _line_structure(st, tilde, coefficients=False):
    """What the walk's line test finds for the tilde operators ``tilde``,
    and with ``coefficients`` also the c_q of the line pairs."""
    vecs = st.eigen.vectors
    rotated = dagger(vecs) @ np.asarray(tilde, dtype=complex) @ vecs
    j, k = tensor._pair_indices(len(tilde))
    prods = rotated[j] @ rotated[k]
    comms = -1j * (prods - dagger(prods))
    lines = tensor._pair_lines(rotated, comms, j, k)
    if not coefficients:
        return lines
    flat = comms.reshape(len(comms), -1)
    return lines, [flat[q, lines.rows[lines.line_of[q]]] for q in np.flatnonzero(lines.on_line)]


def _both_paths(monkeypatch, st, tilde, ps):
    """The cp and fbar walk over ``ps`` on the line gauge and on the
    complex path, which is the reference."""
    walks = []
    for entries in (0, 1 << 60):
        monkeypatch.setattr(tensor, "GAUGE_MIN_ENTRIES", entries)
        walks.append(tensor.block_sweep(st, tilde, ps, cp=True, fbar=True))
    return walks


def _assert_paths_agree(gauged, complex_, lines):
    for p, ref in complex_.items():
        got = gauged[p]
        scale = np.max(np.abs(ref.cp.entries))
        assert np.allclose(got.cp.entries, ref.cp.entries, rtol=1e-13, atol=1e-13 * scale), p
        for q, (cand, ref_cand) in enumerate(zip(got.candidates, ref.candidates, strict=True)):
            assert cand.meta == ref_cand.meta
            if lines.on_line[q] or np.any(lines.diag[q]):  # a non-commuting pair
                scale = np.max(np.abs(ref_cand.entries))
                assert np.allclose(cand.entries, ref_cand.entries, rtol=1e-13,
                                   atol=1e-13 * scale), (p, cand.meta)


class TestLineGauge:
    """The gauged path of the walk, for pair commutators that in rho's
    eigenbasis are each diagonal or on one line, against the complex
    path."""

    @pytest.mark.parametrize("delta, exact_fails", [(0.05, 27), (0.15, 27), (0.175, 22)])
    def test_line_rule_finds_the_preset_structure(self, delta, exact_fails):
        # There the exact-zero pattern of the rotated commutators is no
        # guide: rounding residues fill most of them in, and the rule
        # drops them.  ``exact_fails`` was counted with OpenBLAS; the
        # residues depend on the BLAS, so half of it must still fail.
        st, tilde = qutrit8_tilde(delta)
        lines = _line_structure(st, tilde)
        assert lines is not None
        assert np.sum(lines.on_line) == 24 and len(lines.rows) == 3
        vecs = st.eigen.vectors
        rotated = dagger(vecs) @ np.asarray(tilde) @ vecs
        fails = 0
        for j, k in itertools.combinations(range(8), 2):
            prod = rotated[j] @ rotated[k]
            nonzero = (prod - dagger(prod)) != 0
            off = np.count_nonzero(np.triu(nonzero, 1))
            fails += off > 1 or (off == 1 and np.any(np.diag(nonzero)))
        assert fails >= exact_fails // 2

    @pytest.mark.parametrize("preset, deltas, top", [
        ("qubit3", (0.0, 0.2, 0.5, 0.9), 8),
        ("qutrit:1,2,5", (0.0, 0.1, 0.3), 8),
        ("qutrit8", (0.0, 0.05, 0.1, 0.15, 0.3, 0.5), 8),
    ])
    def test_presets_match_the_complex_path(self, monkeypatch, preset, deltas, top):
        for delta in deltas:
            fam = build_scenario(parse_scenario(preset, delta=delta))
            st = evaluate(fam, np.zeros(fam.n))
            _, _, tilde = sld_analysis(st)
            lines = _line_structure(st, tilde)
            assert lines is not None
            for ps in (range(1, top + 1), [3]):
                _assert_paths_agree(*_both_paths(monkeypatch, st, tilde, ps), lines)

    @pytest.mark.parametrize("d, n, seed", [(3, 3, 1), (3, 4, 2), (3, 5, 3), (4, 5, 4), (4, 6, 5)])
    def test_planted_lines_match_the_complex_path(self, monkeypatch, d, n, seed):
        # Complex c_q on lines that share an index give kappa = +-1, so the
        # phase table is exercised.
        st = evaluate(planted_line_family(d, n, np.random.default_rng(seed)), np.zeros(n))
        _, _, tilde = sld_analysis(st)
        lines, coefs = _line_structure(st, tilde, coefficients=True)
        assert np.all(np.abs(np.sin(2 * np.angle(coefs))) > 1e-3)  # no c_q real or imaginary
        top = 6 if d == 3 else 4
        _assert_paths_agree(*_both_paths(monkeypatch, st, tilde, range(1, top + 1)), lines)

    def test_random_families_take_the_complex_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tensor, "_line_group", lambda *a: calls.append(a))
        for d in (2, 3, 4):
            st = _block_case(f"d{d}")
            _, _, tilde = sld_analysis(st)
            assert _line_structure(st, tilde) is None
            p = {2: 30, 3: 6, 4: 4}[d]  # above GAUGE_MIN_ENTRIES
            assert 3 * max(schur.irrep_dim(s) for s in schur.partitions(p, d)) ** 2 >= 2048
            tensor.block_sweep(st, tilde, [p], cp=True, fbar=True)
        assert calls == []

    @pytest.mark.parametrize("preset, ps", [
        ("qubit3", (1, 2, 3)), ("qutrit:1,2,5", (1, 2, 3)), ("qutrit8", (1, 2)),
        ("qubit3", range(1, 11)),
    ])
    def test_small_walks_skip_the_line_test(self, monkeypatch, preset, ps):
        # Below GAUGE_MIN_ENTRIES the complex path costs less than the
        # line test, so the walk does not run it.
        def refuse(*args):
            raise AssertionError("line test on a small walk")

        monkeypatch.setattr(tensor, "_pair_lines", refuse)
        fam = build_scenario(parse_scenario(preset, delta=0.3))
        st = evaluate(fam, np.zeros(fam.n))
        _, _, tilde = sld_analysis(st)
        for p in ps:
            tensor.block_sweep(st, tilde, [p], cp=True, fbar=True)
        tensor.block_sweep(st, tilde, ps, cp=True, fbar=True)

    @pytest.mark.parametrize("delta, commuting", [
        (0.0, [(0, 7), (1, 7), (2, 7)]), (0.15, [(2, 7)]), (0.3, [(2, 7)]),
    ])
    def test_commuting_pairs_take_every_sign_plus(self, delta, commuting):
        # A pair whose commutator is zero to working precision has C_p
        # entry 0 and the all-plus candidate: V sgn V+ = I on every block,
        # so F-bar_Im is sum_u Im F_u over any basis with every sign +1.
        st, tilde = qutrit8_tilde(delta)
        lines = _line_structure(st, tilde)
        pairs = list(itertools.combinations(range(8), 2))
        zero = [pairs[q] for q in range(len(pairs))
                if not lines.on_line[q] and not np.any(lines.diag[q])]
        assert zero == commuting
        walk = tensor.block_sweep(st, tilde, range(1, 6), cp=True, fbar=True)
        for p in range(1, 6):
            plus = compute_fbar_im(st, tilde, p, None, np.ones(3**p)).entries
            for j, k in commuting:
                assert walk[p].cp.entries[j, k] == 0.0
                cand = walk[p].candidates[pairs.index((j, k))]
                assert cand.meta == {"strategy": f"auto_align({j},{k})"}
                assert np.allclose(cand.entries, plus, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(plus))))


class TestComputeCp:
    def test_qubit_p1_all_ones(self, qubit_state):
        for delta in (0.0, 0.5, 0.9):
            st = qubit_state(delta)
            _, _, tilde = sld_analysis(st)
            cp = cp_at(st, tilde, 1)
            assert np.allclose(cp.entries, np.ones((3, 3)) - np.eye(3), atol=1e-10)

    def test_qubit_p2_entries(self, qubit_state):
        delta = 0.6
        st = qubit_state(delta)
        _, _, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, 2)
        assert cp.entries[0, 1] == pytest.approx(1 + delta**2, abs=1e-10)
        assert cp.entries[0, 2] == pytest.approx(np.sqrt(1 + delta**2), abs=1e-10)
        assert cp.entries[1, 2] == pytest.approx(np.sqrt(1 + delta**2), abs=1e-10)

    def test_qutrit_subset_c1(self, qutrit_state):
        st, _ = qutrit_state("qutrit:1,2")
        _, _, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, 1)
        assert np.allclose(cp.entries, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-10)

    def test_matches_literal_collective_route(self, qubit_state):
        # Dual route: the block path must equal the literal
        # sqrt(rho_p) [L_jp, L_kp] sqrt(rho_p) computed with materialized
        # collective operators and a full SVD.
        st = qubit_state(0.35)
        _, _, tilde = sld_analysis(st)
        for p in (1, 2, 3):
            fast = cp_at(st, tilde, p)
            s = linalg.kron_power(st.sqrt_rho, p)
            ops = [literal_site_sum(op, np.eye(2), p) for op in tilde]
            for j in range(3):
                for k in range(j + 1, 3):
                    m = s @ (ops[j] @ ops[k] - ops[k] @ ops[j]) @ s
                    literal = 0.5 * float(np.sum(np.linalg.svd(m, compute_uv=False)))
                    assert fast.entries[j, k] == pytest.approx(literal, abs=1e-9)

    def test_structure(self, qubit_state):
        st = qubit_state(0.3)
        _, _, tilde = sld_analysis(st)
        cp = cp_at(st, tilde, 2)
        cp.validate()


class TestComputeCpRld:
    def test_qutrit_sld_equals_rld(self, qutrit_state):
        st, _ = qutrit_state("qutrit:1,2")
        slds, fisher, tilde = sld_analysis(st)
        rlds = compute_rld(st)
        rf = compute_rld_fisher(st, rlds, fisher)
        rt = reparametrize(rlds, rf)
        c1 = cp_rld_at(st, rt, 1)
        assert c1.entries[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_commuting_rlds_vanish(self):
        rho = np.diag([0.5, 0.3, 0.2])
        g1 = np.diag([0.5, -0.5, 0.0])
        g2 = np.diag([0.0, 0.5, -0.5])
        st = EvaluatedState.from_matrices(rho, [g1, g2])
        slds, fisher, _ = sld_analysis(st)
        rlds = compute_rld(st)
        rf = compute_rld_fisher(st, rlds, fisher)
        rt = reparametrize(rlds, rf)
        c1 = cp_rld_at(st, rt, 1)
        assert np.max(np.abs(c1.entries)) <= 1e-10

    def test_clipping_at_2p(self):
        # Near-pure state: the raw trace norm exceeds 2, so the entry is
        # clipped at 2p.  Oracle: the sandwiched product difference is
        # rho^(-1/2) (i sigma_3 / 2) rho^(-1/2); its trace norm follows
        # from an explicit SVD.
        eps = 0.1
        rho = np.diag([1 - eps, eps])
        st = EvaluatedState.from_matrices(rho, [SIGMA1 / 2, SIGMA2 / 2])
        slds, fisher, _ = sld_analysis(st)
        rlds = compute_rld(st)
        rf = compute_rld_fisher(st, rlds, fisher)
        rt = reparametrize(rlds, rf)

        explicit = np.diag([1 / np.sqrt(1 - eps), 1 / np.sqrt(eps)]) @ (0.5j * SIGMA3) @ np.diag(
            [1 / np.sqrt(1 - eps), 1 / np.sqrt(eps)]
        )
        raw = 0.5 * float(np.sum(np.linalg.svd(explicit, compute_uv=False)))
        assert raw == pytest.approx(1.0 / (4 * eps * (1 - eps)), abs=1e-12)
        assert raw > 2.0

        c1 = cp_rld_at(st, rt, 1)
        assert c1.entries[0, 1] == pytest.approx(2.0, abs=1e-12)

        c2 = cp_rld_at(st, rt, 2)
        assert c2.entries[0, 1] <= 4.0 + 1e-12


def stars_and_bars_compositions(total, parts):
    """Occupation vectors from ``itertools.combinations`` of ``parts - 1``
    bar positions among ``total + parts - 1`` slots (lexicographic)."""
    slots = total + parts - 1
    rows = [
        np.diff((-1, *bars, slots)) - 1
        for bars in itertools.combinations(range(slots), parts - 1)
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, parts)


def recursive_compositions(total, parts):
    """All occupation vectors of ``parts`` nonnegative ints summing to
    ``total``, by recursion on the first part (lexicographic order)."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


def literal_tp_pair(st, ops, p, j, k):
    """(T_p)_jk from its definition: the dense commutator's diagonal on the
    support and exact multinomial weights over every occupation vector."""
    vecs = st.support_vectors
    comm = ops[j] @ ops[k] - ops[k] @ ops[j]
    c = np.imag(np.einsum("ai,ab,bi->i", np.conj(vecs), comm, vecs))
    lam = st.support_values
    total = 0.0
    for occ in recursive_compositions(p, len(lam)):
        coeff = math.factorial(p)
        for k_i in occ:
            coeff //= math.factorial(k_i)
        total += coeff * float(np.prod(lam ** np.array(occ))) * abs(float(np.dot(occ, c)))
    return 0.5 * total


class TestComputeTp:
    def test_qubit_t1(self, qubit_state):
        for delta in (0.0, 0.5):
            st = qubit_state(delta)
            _, _, tilde = sld_analysis(st)
            t1 = compute_tp_exact(st, tilde, 1)
            expected = np.zeros((3, 3))
            expected[0, 1] = expected[1, 0] = 1.0
            assert np.allclose(t1.entries, expected, atol=1e-12)

    def test_qubit_t2(self, qubit_state):
        delta = 0.4
        st = qubit_state(delta)
        _, _, tilde = sld_analysis(st)
        t2 = compute_tp_exact(st, tilde, 2)
        assert t2.entries[0, 1] == pytest.approx(1 + delta**2, abs=1e-12)
        assert t2.entries[0, 2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 5, 9])
    def test_qubit_binomial_formula(self, qubit_state, p):
        # Oracle at delta = 0: (T_p)_12 = 2^-p sum_s C(p, s) |2s - p|.
        st = qubit_state(0.0)
        _, _, tilde = sld_analysis(st)
        tp = compute_tp_exact(st, tilde, p)
        expected = sum(math.comb(p, s) * abs(2 * s - p) for s in range(p + 1)) / 2**p
        assert tp.entries[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_enumeration_cap(self, qutrit_state):
        st, _ = qutrit_state("qutrit:1,2")
        _, _, tilde = sld_analysis(st)
        with pytest.raises(EnumerationOverflow):
            compute_tp_exact(st, tilde, 3000, enum_cap=1000)

    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 5, 6])
    def test_compositions_match_recursive_oracle(self, parts):
        for total in range(13):
            got = tensor.compositions(total, parts)
            expected = np.array(list(recursive_compositions(total, parts)), dtype=np.int64)
            assert got.dtype == np.int64
            assert got.shape == (tensor.composition_count(total, parts), parts)
            assert np.array_equal(got, expected)
            assert np.array_equal(got, stars_and_bars_compositions(total, parts))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_exact_matches_literal_pair_sum(self, d):
        rng = np.random.default_rng(400 + d)
        for n in (2, 3):
            st = evaluate(random_linear_family(d, n, rng), np.zeros(n))
            _, _, tilde = sld_analysis(st)
            for p in (1, 2, 4, 7):
                tp = compute_tp_exact(st, tilde, p)
                for j, k in itertools.combinations(range(n), 2):
                    ref = literal_tp_pair(st, tilde, p, j, k)
                    assert tp.entries[j, k] == pytest.approx(ref, rel=1e-13, abs=0.0)
                    assert tp.entries[k, j] == tp.entries[j, k]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exact_bits_of_one_kernel(self, d):
        # The table / occupation-sum split, and a table passed in, leave
        # every entry bit for bit as the one-kernel form below computes it.
        rng = np.random.default_rng(700 + d)
        for n in (2, 3):
            st = evaluate(random_linear_family(d, n, rng), np.zeros(n))
            _, _, tilde = sld_analysis(st)
            cols = np.asarray(tilde) @ st.support_vectors
            gram = np.einsum("jai,kai->ijk", np.conj(cols), cols)
            j, k = np.triu_indices(n, 1)
            table = 2.0 * np.imag(gram[:, j, k])
            for p in (1, 3, 8):
                rows, weights = tensor._occupation_law(p, st.support_values)
                ref = np.zeros((n, n))
                ref[j, k] = [0.5 * float(weights @ np.abs(rows @ c)) for c in table.T]
                ref = ref + ref.T
                assert np.array_equal(compute_tp_exact(st, tilde, p).entries, ref)
                kept = tensor.pair_commutator_table(st, tilde)
                given = compute_tp_exact(st, tilde, p, table=kept)
                assert np.array_equal(given.entries, ref)

    def test_monte_carlo_shared_draw_within_six_stderr(self):
        fam = build_scenario(parse_scenario("qutrit8", delta=0.3))
        st = evaluate(fam, np.zeros(fam.n))
        _, _, tilde = sld_analysis(st)
        exact = compute_tp_exact(st, tilde, 10)
        mc = compute_tp_monte_carlo(st, tilde, 10, samples=20_000, seed=2024)
        se = mc.meta["stderr"]
        for j, k in itertools.combinations(range(8), 2):
            assert abs(mc.entries[j, k] - exact.entries[j, k]) <= 6.0 * se[j, k] + 1e-12
        assert np.array_equal(mc.entries, mc.entries.T)
        assert np.array_equal(se, se.T)

    def test_monte_carlo_pure_state_exact(self):
        ket = np.array([1.0, 0.0])
        fam = StateFamily.linear(np.outer(ket, ket), [SIGMA1 / 2, SIGMA2 / 2])
        st = evaluate(fam, np.zeros(2))
        _, _, tilde = sld_analysis(st)
        exact = compute_tp_exact(st, tilde, 7)
        mc = compute_tp_monte_carlo(st, tilde, 7, samples=50, seed=1)
        assert np.allclose(mc.entries, exact.entries, atol=1e-12)
        assert np.max(mc.meta["stderr"]) <= 1e-12

    def test_monte_carlo_three_sigma(self, qubit_state):
        st = qubit_state(0.0)
        _, _, tilde = sld_analysis(st)
        p = 20
        mc = compute_tp_monte_carlo(st, tilde, p, samples=100_000, seed=42)
        expected = 0.5 * sum(
            math.comb(p, s) * abs(2 * s - p) for s in range(p + 1)
        ) / 2**p * 2.0
        se = mc.meta["stderr"][0, 1]
        assert abs(mc.entries[0, 1] - expected) <= 3.0 * se + 1e-12

    def test_monte_carlo_seed_repeatable(self, qubit_state):
        st = qubit_state(0.3)
        _, _, tilde = sld_analysis(st)
        a = compute_tp_monte_carlo(st, tilde, 5, samples=500, seed=9)
        b = compute_tp_monte_carlo(st, tilde, 5, samples=500, seed=9)
        assert a.entries.tobytes() == b.entries.tobytes()
        c = compute_tp_monte_carlo(st, tilde, 5, samples=500, seed=10)
        assert not np.array_equal(a.entries, c.entries)


def qutrit8_tilde(delta):
    fam = build_scenario(parse_scenario("qutrit8", delta=delta))
    st = evaluate(fam, np.zeros(fam.n))
    return st, sld_analysis(st)[2]


@pytest.fixture
def pair_sums_spy(monkeypatch):
    """Records the (rows, freq) of every ``tensor._pair_sums`` call."""
    calls = []
    inner = tensor._pair_sums

    def spy(rows, freq, table, spread=False):
        calls.append((rows.copy(), freq.copy()))
        return inner(rows, freq, table, spread)

    monkeypatch.setattr(tensor, "_pair_sums", spy)
    return calls


class TestMonteCarloDraw:
    """The histogram draw (occupation law no longer than ``samples``) and
    the per-sample draw (otherwise) of compute_tp_monte_carlo."""

    def test_histogram_sums_to_samples(self, pair_sums_spy):
        st, tilde = qutrit8_tilde(0.3)
        compute_tp_monte_carlo(st, tilde, 20, samples=3001, seed=5)
        (rows, freq), = pair_sums_spy
        assert len(rows) == tensor.composition_count(20, st.support_rank)
        assert np.array_equal(rows, tensor.compositions(20, st.support_rank))
        assert freq.sum() == 3001
        assert np.array_equal(freq, np.round(freq)) and freq.min() >= 0

    @pytest.mark.parametrize("p, samples", [(1, 3), (6, 400), (20, 3001)])
    def test_histogram_matches_expanded_samples(self, pair_sums_spy, p, samples):
        # The histogram's mean and ddof=1 stderr are those of the samples
        # it counts, each occupation repeated as often as it was drawn.
        st, tilde = qutrit8_tilde(0.3)
        mc = compute_tp_monte_carlo(st, tilde, p, samples=samples, seed=11)
        (rows, freq), = pair_sums_spy
        assert len(rows) == tensor.composition_count(p, st.support_rank) <= samples
        expanded = np.repeat(rows, freq.astype(np.int64), axis=0)
        table = tensor.pair_commutator_table(st, tilde)
        for q, (j, k) in enumerate(itertools.combinations(range(8), 2)):
            vals = 0.5 * np.abs(expanded @ table[:, q])
            stderr = np.std(vals, ddof=1) / math.sqrt(samples)
            assert mc.entries[j, k] == pytest.approx(np.mean(vals), rel=1e-12, abs=1e-12)
            assert mc.meta["stderr"][j, k] == pytest.approx(stderr, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p, samples, histogram", [(10, 2000, True), (200, 1000, False)])
    def test_both_draws_repeatable_and_near_exact(self, pair_sums_spy, p, samples, histogram):
        st, tilde = qutrit8_tilde(0.3)
        exact = compute_tp_exact(st, tilde, p)
        a = compute_tp_monte_carlo(st, tilde, p, samples=samples, seed=2025)
        b = compute_tp_monte_carlo(st, tilde, p, samples=samples, seed=2025)
        rows = pair_sums_spy[1][0]
        law = tensor.composition_count(p, st.support_rank)
        assert len(rows) == (law if histogram else samples)
        assert a.entries.tobytes() == b.entries.tobytes()
        assert a.meta["stderr"].tobytes() == b.meta["stderr"].tobytes()
        se = a.meta["stderr"]
        for j, k in itertools.combinations(range(8), 2):
            assert abs(a.entries[j, k] - exact.entries[j, k]) <= 6.0 * se[j, k] + 1e-12

    @pytest.mark.parametrize("samples", [5000, 20])
    def test_tiny_eigenvalue_draws(self, samples):
        # A 1e-12 eigenvalue inside the support: its law weights underflow
        # at large p, and the draw takes it in either form.
        rho = np.diag([0.6 - 1e-12, 0.4, 1e-12]).astype(complex)
        gens = [scenarios.GELL_MANN[0] / 2, scenarios.GELL_MANN[1] / 2, scenarios.GELL_MANN[3] / 2]
        st = evaluate(StateFamily.linear(rho, gens), np.zeros(3), rank_tol=1e-14)
        assert st.support_rank == 3
        _, _, tilde = sld_analysis(st)
        for p in (3, 40):
            exact = compute_tp_exact(st, tilde, p)
            mc = compute_tp_monte_carlo(st, tilde, p, samples=samples, seed=3)
            assert np.all(np.isfinite(mc.entries)) and np.all(np.isfinite(mc.meta["stderr"]))
            se = mc.meta["stderr"]
            assert np.all(np.abs(mc.entries - exact.entries) <= 6.0 * se + 1e-9)

    def test_pure_state_draws(self, pair_sums_spy):
        ket = np.array([1.0, 0.0])
        fam = StateFamily.linear(np.outer(ket, ket), [SIGMA1 / 2, SIGMA2 / 2])
        st = evaluate(fam, np.zeros(2))
        _, _, tilde = sld_analysis(st)
        mc = compute_tp_monte_carlo(st, tilde, 30, samples=1, seed=0)
        (rows, freq), = pair_sums_spy
        assert rows.tolist() == [[30.0]] and freq.tolist() == [1.0]
        assert np.allclose(mc.entries, compute_tp_exact(st, tilde, 30).entries, atol=1e-12)
        assert np.all(mc.meta["stderr"] == 0.0)


class TestPairSums:
    def test_stack_size_does_not_round(self, monkeypatch):
        # Each pair is its own matrix-vector product, so the stacking of
        # pairs leaves every exact T_p entry bit for bit as it was.
        st, tilde = qutrit8_tilde(0.3)
        table = tensor.pair_commutator_table(st, tilde)
        rows, weights = tensor._occupation_law(40, st.support_values)
        alone = [0.5 * float(weights @ np.abs(rows @ c)) for c in table.T]
        for stack_bytes in (1, 3 * 8 * len(rows), 1 << 30):
            monkeypatch.setattr(tensor, "STACK_BYTES", stack_bytes)
            sums, _ = tensor._pair_sums(rows, weights, table)
            assert sums.tobytes() == np.array(alone).tobytes()

    def test_exact_tp_working_set(self):
        # qutrit8 at p = 200: 20 301 occupations and 28 pairs.  All pairs
        # in one (occupations x pairs) product would take over 9 MiB.
        st, tilde = qutrit8_tilde(0.3)
        compute_tp_exact(st, tilde, 200)  # warm the caches
        tracemalloc.start()
        try:
            compute_tp_exact(st, tilde, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20


def reference_law(p, values):
    """The occupation law as it was computed before its skeleton was kept."""
    occupations = tensor.compositions(p, len(values))
    log_fact = np.array([math.lgamma(i + 1) for i in range(p + 1)])
    log_w = log_fact[p] - np.sum(log_fact[occupations], axis=1) + occupations @ np.log(values)
    return occupations.astype(float), np.exp(log_w)


def reference_optimize_norm_signs(imags):
    """The exhaustive sign choice as it was made before its patterns were kept."""
    count = len(imags)
    flat = imags.reshape(count, -1)
    gram = flat @ flat.T
    bits = (np.arange(2 ** (count - 1))[:, None] >> np.arange(count - 1)) & 1
    patterns = np.ones((len(bits), count))
    patterns[:, 1:] -= 2.0 * bits
    squares = np.sum((patterns @ gram) * patterns, axis=1)
    return patterns[tensor.first_best(np.sqrt(np.maximum(squares, 0.0)))]


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty kept tables of tensor for one test; the shared ones come back
    afterwards."""
    monkeypatch.setattr(tensor, "_laws", {})
    monkeypatch.setattr(tensor, "_bases", {})
    monkeypatch.setattr(
        tensor, "_sign_patterns", functools.cache(tensor._sign_patterns.__wrapped__)
    )


@pytest.fixture
def composition_calls(monkeypatch):
    """Records the (total, parts) of every ``tensor.compositions`` call."""
    calls = []
    inner = tensor.compositions

    def counting(total, parts):
        calls.append((total, parts))
        return inner(total, parts)

    monkeypatch.setattr(tensor, "compositions", counting)
    return calls


class TestKeptTables:
    """The state-independent tables of T_p and of the exhaustive F-bar are
    built once per process, read-only, and change no number."""

    def test_law_equals_the_reference_formula(self, cold_tables):
        rng = np.random.default_rng(23)
        cases = [(1, rank) for rank in range(1, 6)] + [(200, 3), (255, 2), (256, 2)]
        cases += [(int(rng.integers(2, 60)), int(rng.integers(1, 6))) for _ in range(40)]
        for p, rank in cases:
            values = rng.dirichlet(np.ones(rank))
            want = reference_law(p, values)
            for _ in range(2):  # built, then read from the table
                rows, law = tensor._occupation_law(p, values)
                assert rows.dtype == np.float64
                assert rows.tobytes() == want[0].tobytes()
                assert law.tobytes() == want[1].tobytes()

    def test_skeleton_is_narrow(self, cold_tables):
        occupations, log_coef = tensor._law_skeleton(255, 2)
        assert occupations.dtype == np.uint8 and log_coef.dtype == np.float64
        assert tensor._law_skeleton(256, 2)[0].dtype == np.uint16

    def test_kept_arrays_are_read_only(self, cold_tables):
        for preset, delta, ps in (("qubit3", 0.3, (1, 2, 3)), ("qutrit:1,2,5", 0.2, (1, 2))):
            fam = build_scenario(parse_scenario(preset, delta=delta))
            st = evaluate(fam, np.zeros(fam.n))
            _, _, tilde = sld_analysis(st)
            for p in ps:
                compute_tp_exact(st, tilde, p)
                compute_tp_monte_carlo(st, tilde, p + 5, samples=1000, seed=1)
                compute_fbar_im(st, tilde, p, None, OptimizeNorm())
        assert set(tensor._bases) == {(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)}
        assert len(tensor._laws) == 10  # p and p + 5 at ranks 2 and 3
        kept = [a for skeleton in tensor._laws.values() for a in skeleton]
        kept += list(tensor._bases.values())
        kept += [tensor._sign_patterns(k) for k in range(2, tensor.OPTIMIZE_MAX_VECTORS + 1)]
        for array in kept:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0

    def test_second_call_builds_no_compositions(self, cold_tables, composition_calls):
        st, tilde = qutrit8_tilde(0.3)
        first = compute_tp_exact(st, tilde, 7)
        assert composition_calls == [(7, 3)]
        again = compute_tp_exact(st, tilde, 7)
        # the Monte Carlo histogram draw reads the same skeleton
        compute_tp_monte_carlo(st, tilde, 7, samples=1000, seed=1)
        assert composition_calls == [(7, 3)]
        assert again.entries.tobytes() == first.entries.tobytes()

    def test_skeleton_over_budget_is_not_kept(self, cold_tables, composition_calls, monkeypatch):
        monkeypatch.setattr(tensor, "LAW_CACHE_BYTES", sum(a.nbytes for a in tensor._law_skeleton(3, 3)))
        tensor._laws.clear()
        tensor._law_skeleton(3, 3)  # kept: the budget now lacks its bytes
        values = np.array([0.5, 0.3, 0.2])
        for _ in range(2):
            rows, law = tensor._occupation_law(40, values)
            want = reference_law(40, values)
            assert rows.tobytes() == want[0].tobytes() and law.tobytes() == want[1].tobytes()
        assert list(tensor._laws) == [(3, 3)]
        assert composition_calls.count((40, 3)) == 4  # two builds, two references

    def test_enumeration_overflow_before_any_table(self, cold_tables, composition_calls):
        st, tilde = qutrit8_tilde(0.3)
        with pytest.raises(EnumerationOverflow):
            compute_tp_exact(st, tilde, 40, enum_cap=100)
        assert composition_calls == [] and tensor._laws == {}

    @pytest.mark.parametrize("count", range(2, tensor.OPTIMIZE_MAX_VECTORS + 1))
    def test_sign_patterns_give_the_reference_choice(self, cold_tables, count):
        rng = np.random.default_rng(count)
        units = [skew_unit(6, j, k) for j, k in itertools.combinations(range(6), 2)]
        generic = rng.normal(size=(count, 6, 6))
        generic -= generic.transpose(0, 2, 1)
        disjoint = np.array([rng.uniform(0.5, 2.0) * units[q] for q in range(count)])
        zeros = generic.copy()
        zeros[1::2] = 0.0  # flipping a zero vector is an exact tie
        for imags in (generic, disjoint, zeros, np.zeros((count, 6, 6))):
            got = tensor._optimize_norm_signs(imags)
            assert got.tobytes() == reference_optimize_norm_signs(imags).tobytes()

    def test_optimize_norm_beyond_the_cap_is_refused(self, cold_tables, qubit_state):
        st = qubit_state(0.3)
        with pytest.raises(KindMismatch, match="limited to 12 vectors, basis has 16"):
            compute_fbar_im(st, sld_analysis(st)[2], 4, None, OptimizeNorm())
        assert tensor._sign_patterns.cache_info().currsize == 0

    def test_computational_basis_kept_up_to_the_exhaustive_size(self, cold_tables, qubit_state):
        st = qubit_state(0.3)
        _, _, tilde = sld_analysis(st)
        fbars = [compute_fbar_im(st, tilde, p, None, [1] * 2**p)
                 for p in (3, 4, 3)]
        assert list(tensor._bases) == [(2, 3)]
        assert fbars[2].entries.tobytes() == fbars[0].entries.tobytes()
        assert tensor._computational_basis(2, 3) is tensor._bases[(2, 3)]


class TestLimit:
    def test_qubit_delta_zero(self, qubit_state):
        st = qubit_state(0.0)
        _, _, tilde = sld_analysis(st)
        lim = limit_fim(st, tilde)
        assert np.max(np.abs(lim.entries)) <= 1e-12

    def test_qubit_delta_half(self, qubit_state):
        st = qubit_state(0.5)
        _, _, tilde = sld_analysis(st)
        lim = limit_fim(st, tilde)
        assert lim.entries[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert lim.entries[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_commuting(self):
        rho = np.diag([0.6, 0.4])
        st = EvaluatedState.from_matrices(rho, [np.diag([0.5, -0.5]), SIGMA1 / 2])
        _, _, tilde = sld_analysis(st)
        lim = limit_fim(st, tilde)
        # [diag, sigma_1-like] has zero diagonal, so the trace vanishes.
        assert np.max(np.abs(lim.entries)) <= 1e-12

    def test_random_matches_dense_commutators(self):
        for seed in range(5):
            rng = np.random.default_rng(90 + seed)
            fam = random_linear_family(int(rng.integers(2, 5)), 3, rng)
            st = evaluate(fam, np.zeros(3))
            _, _, tilde = sld_analysis(st)
            ref = np.zeros((3, 3))
            for j, k in itertools.combinations(range(3), 2):
                val = np.trace(st.rho @ linalg.commutator(tilde[j], tilde[k]))
                ref[j, k] = ref[k, j] = 0.5 * abs(val)
            assert np.allclose(limit_fim(st, tilde).entries, ref, rtol=0, atol=1e-12)


class TestFbar:
    def test_qubit_p1_paper_choice(self, qubit_state):
        for delta in (0.0, 0.5):
            st = qubit_state(delta)
            _, _, tilde = sld_analysis(st)
            fb = compute_fbar_im(st, tilde, 1, None, [1, -1])
            expected = np.zeros((3, 3))
            expected[0, 1] = 1.0
            expected[1, 0] = -1.0
            assert np.allclose(fb.entries, expected, atol=1e-10)

    def test_qubit_p2_paper_choice(self, qubit_state):
        delta = 0.3
        st = qubit_state(delta)
        _, _, tilde = sld_analysis(st)
        fb = compute_fbar_im(st, tilde, 2, None, [1, 1, 1, -1])
        assert fb.entries[0, 1] == pytest.approx(1 + delta**2, abs=1e-10)

    def test_align_entry_matches_paper(self, qubit_state):
        st = qubit_state(0.3)
        _, _, tilde = sld_analysis(st)
        fb = compute_fbar_im(st, tilde, 2, None, AlignEntry(0, 1))
        assert fb.meta["signs"] == (1, 1, 1, -1)

    def test_qutrit_subset_p2(self, qutrit_state):
        st, _ = qutrit_state("qutrit:1,2,5")
        _, _, tilde = sld_analysis(st)
        fb = compute_fbar_im(st, tilde, 2, None, OptimizeNorm())
        assert fb.entries[0, 1] == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_auto_align_reproduces_cp_entry(self, qubit_state):
        st = qubit_state(0.45)
        _, _, tilde = sld_analysis(st)
        for p in (1, 2, 3):
            cp = cp_at(st, tilde, p)
            cands = tensor.block_sweep(st, tilde, [p], fbar=True)[p].candidates
            for (j, k), fb in zip(((0, 1), (0, 2), (1, 2)), cands, strict=True):
                assert fb.entries[j, k] == pytest.approx(cp.entries[j, k], abs=1e-9)

    def test_incomplete_basis(self, qubit_state):
        st = qubit_state(0.0)
        _, _, tilde = sld_analysis(st)
        bad = np.array([[1.0], [0.0]])  # one column of C^2
        with pytest.raises(IncompleteBasis):
            compute_fbar_im(st, tilde, 1, bad, [1])

    def test_overcomplete_basis_allowed(self, qubit_state):
        st = qubit_state(0.2)
        _, _, tilde = sld_analysis(st)
        # Two copies of the computational basis scaled by 1/sqrt(2) still
        # resolve the identity.
        vecs = np.hstack([np.eye(2), np.eye(2)]) / np.sqrt(2)
        fb = compute_fbar_im(st, tilde, 1, vecs, [1] * 4)
        assert fb.entries.shape == (3, 3)

    def test_optimize_cap(self, qubit_state):
        st = qubit_state(0.0)
        _, _, tilde = sld_analysis(st)
        with pytest.raises(KindMismatch):
            compute_fbar_im(st, tilde, 4, None, OptimizeNorm())

    def test_state_eigenbasis_reproduces_tp_entry(self, qubit_state):
        # Aligning the (j, k) imaginary parts in the eigenbasis of rho^(x)p
        # sums the |diagonal| elements, which is exactly the T_p entry.
        st = qubit_state(0.45)
        _, _, tilde = sld_analysis(st)
        for p in (1, 2, 3):
            basis = linalg.kron_power(st.eigen.vectors, p)
            tp = compute_tp_exact(st, tilde, p)
            for (j, k) in ((0, 1), (0, 2), (1, 2)):
                fb = compute_fbar_im(st, tilde, p, basis, AlignEntry(j, k))
                assert fb.entries[j, k] == pytest.approx(tp.entries[j, k], abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_state_eigenbasis_reproduces_tp_entry_random(self, d):
        # Random families have non-diagonal rho, so U^(x)p is a rotated
        # product basis.
        rng = np.random.default_rng(40 + d)
        for _ in range(3):
            st = evaluate(random_linear_family(d, 3, rng), np.zeros(3))
            _, _, tilde = sld_analysis(st)
            for p in (1, 2, 3):
                basis = linalg.kron_power(st.eigen.vectors, p)
                tp = compute_tp_exact(st, tilde, p).entries
                for j, k in itertools.combinations(range(3), 2):
                    fb = compute_fbar_im(st, tilde, p, basis, AlignEntry(j, k))
                    assert fb.entries[j, k] == pytest.approx(tp[j, k], rel=1e-12, abs=0.0)

    def test_wrong_size_basis(self, qubit_state):
        # Eight vectors of C^8 at qubit p = 2: d^p = 4 entries are needed.
        st = qubit_state(0.3)
        _, _, tilde = sld_analysis(st)
        with pytest.raises(DimMismatch):
            compute_fbar_im(st, tilde, 2, np.eye(8), [1] * 8)

    @pytest.mark.parametrize("basis", [np.ones(4) / 2, np.eye(4)[:3], np.eye(4)[None]])
    def test_basis_must_be_d_p_rows_of_columns(self, qubit_state, basis):
        # A 1-D vector, three rows at d^p = 4, or a 3-D stack.
        st = qubit_state(0.3)
        _, _, tilde = sld_analysis(st)
        with pytest.raises(DimMismatch):
            compute_fbar_im(st, tilde, 2, basis, [1] * 4)

    @pytest.mark.parametrize("signs", [
        [1, 0], [1, 2], ["asis", "asis"], [True, False], [1], [1, -1, 1], "+-", None,
    ])
    def test_signs_must_be_plus_minus_one(self, qubit_state, signs):
        # Two basis vectors at qubit p = 1: only two entries of +1 or -1.
        st = qubit_state(0.3)
        _, _, tilde = sld_analysis(st)
        with pytest.raises(KindMismatch):
            compute_fbar_im(st, tilde, 1, None, signs)

    @pytest.mark.parametrize("d, p", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
    def test_aggregate_bytes_match_tensordot(self, d, p):
        # The aggregate is one matrix-vector product on the flattened stack
        # of Im F_u; on stacks of 2, 3, 4, 8 and 9 vectors it keeps the bits
        # of the tensordot it replaced.
        rng = np.random.default_rng(90 + 10 * d + p)
        st = evaluate(random_linear_family(d, 3, rng), np.zeros(3))
        _, _, tilde = sld_analysis(st)
        signs = rng.choice([-1.0, 1.0], d**p)
        for basis in (None, haar_unitary(d**p, rng)):
            full = np.eye(d**p) if basis is None else basis
            imags = tensor._fu_imag_parts(st, np.asarray(tilde), p, full)
            ref = tensor._fbar_matrix(p, np.tensordot(signs, imags, axes=1)).entries
            got = compute_fbar_im(st, tilde, p, basis, signs).entries
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_explicit_signs_as_ints_or_floats(self, qubit_state):
        st = qubit_state(0.3)
        _, _, tilde = sld_analysis(st)
        ints = compute_fbar_im(st, tilde, 1, None, [1, -1])
        floats = compute_fbar_im(st, tilde, 1, None, np.array([1.0, -1.0]))
        assert np.array_equal(ints.entries, floats.entries)
        assert ints.meta == floats.meta == {"strategy": "explicit", "signs": (1, -1)}
        assert all(type(s) is int for s in floats.meta["signs"])

    @pytest.mark.parametrize("signs", [
        (0, 0), (-1, 0), (0, 5), (3, 1),
        AlignEntry(0, 7), AlignEntry(2, 2), AlignEntry(0, -3),
    ])
    def test_pair_indices_checked(self, qubit_state, signs):
        # Three operators: an AlignEntry selector needs two distinct
        # indices in [0, 3).  A negative index used to wrap around and an
        # index of 5 or 7 ended in a raw IndexError.
        st = qubit_state(0.5)
        _, _, tilde = sld_analysis(st)
        j, k = (signs.j, signs.k) if isinstance(signs, AlignEntry) else signs
        with pytest.raises(KindMismatch):
            compute_fbar_im(st, tilde, 4, None, AlignEntry(j, k))

    @pytest.mark.parametrize("p", [2, 3])
    def test_align_entry_haar_basis_matches_per_vector_sum(self, qubit_state, p):
        # Oracle: sum_q s_q Im <u_q|S L_j L_k S|u_q> vector by vector from
        # the materialized collective operators, s_q aligning entry (j, k).
        st = qubit_state(0.3)
        _, _, tilde = sld_analysis(st)
        u = haar_unitary(2**p, np.random.default_rng(70 + p))
        s = linalg.kron_power(st.sqrt_rho, p)
        ops = [literal_site_sum(op, np.eye(2), p) for op in tilde]
        for j, k in ((0, 1), (0, 2), (1, 2)):
            fb = compute_fbar_im(st, tilde, p, u, AlignEntry(j, k))
            expected = np.zeros((3, 3))
            for q in range(2**p):
                w = s @ u[:, q]
                im = np.imag([[np.vdot(w, ops[a] @ ops[b] @ w) for b in range(3)]
                              for a in range(3)])
                expected += (-1.0 if im[j, k] < -1e-12 else 1.0) * im
            assert np.allclose(fb.entries, expected, atol=1e-10)
            assert fb.entries[j, k] >= -1e-12


def optimize_norm_loop(st, ops, p, basis):
    """Oracle: one tensordot and one norm per transpose pattern, keeping
    a pattern only when it beats the best so far by 1e-15."""
    imags = tensor._fu_imag_parts(st, np.asarray(ops), p, basis)
    best, best_norm = None, -1.0
    count = basis.shape[1]
    flip_bits = np.arange(count - 1)
    for bits in range(2 ** (count - 1)):
        cand = np.ones(count)
        cand[1:] -= 2.0 * ((bits >> flip_bits) & 1)
        norm = float(np.linalg.norm(np.tensordot(cand, imags, axes=1)))
        if norm > best_norm + 1e-15:
            best, best_norm = cand, norm
    return best, best_norm


def skew_unit(n, a, b):
    m = np.zeros((n, n))
    m[a, b], m[b, a] = 1.0, -1.0
    return m


class TestOptimizeNorm:
    @pytest.mark.parametrize("tilde_frame", [True, False])
    @pytest.mark.parametrize("count", range(2, 13))
    def test_matches_pattern_loop(self, count, tilde_frame):
        # A Parseval frame of ``count`` vectors (the rows of the first dim
        # columns of a Haar unitary, passed as columns) on d^p = 2, 3 or 4 dimensions, for
        # tilde and raw SLDs: the search maximizes the norm of the
        # aggregate of the operators it is given.
        rng = np.random.default_rng(900 + 2 * count + tilde_frame)
        d, p = [(2, 1), (3, 1), (2, 2)][count % 3] if count >= 4 else (2, 1)
        st = evaluate(random_linear_family(d, 3, rng), np.zeros(3))
        slds, _, tilde = sld_analysis(st)
        ops = tilde if tilde_frame else slds.ops
        basis = haar_unitary(count, rng)[:, : d**p].T
        fb = compute_fbar_im(st, ops, p, basis, OptimizeNorm())
        signs, norm = optimize_norm_loop(st, ops, p, basis)
        oracle = compute_fbar_im(st, ops, p, basis, list(signs))
        assert np.linalg.norm(fb.entries) == pytest.approx(norm, rel=1e-12, abs=0.0)
        assert gb.fbar_bound(fb, 3) == pytest.approx(
            gb.fbar_bound(oracle, 3), rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_ties_take_the_first_pattern_at_any_scale(self, scale):
        # Disjoint supports: every pattern has the same norm exactly.
        exact = np.array([skew_unit(3, 0, 1), 0.1 * skew_unit(3, 0, 2), 0.3 * skew_unit(3, 1, 2)])
        assert list(tensor._optimize_norm_signs(scale * exact)) == [1.0, 1.0, 1.0]
        # (+, -) beats (+, +) by 1e-14 relative: a tie at every scale, where
        # an absolute 1e-15 margin takes (+, -) at 1e6 and (+, +) at 1e-6.
        near = np.array([skew_unit(3, 0, 1), skew_unit(3, 0, 2) - 1e-14 * skew_unit(3, 0, 1)])
        assert list(tensor._optimize_norm_signs(scale * near)) == [1.0, 1.0]
        # A real gap is not a tie.
        gap = np.array([skew_unit(3, 0, 1), skew_unit(3, 0, 2) - 1e-9 * skew_unit(3, 0, 1)])
        assert list(tensor._optimize_norm_signs(scale * gap)) == [1.0, -1.0]

    def test_first_best_is_relative(self):
        for scale in (1e-6, 1.0, 1e6):
            assert tensor.first_best(scale * np.array([1.0, 1.0 + 1e-14, 0.5])) == 0
            assert tensor.first_best(scale * np.array([0.5, 1.0, 1.0 + 1e-9])) == 2
        assert tensor.first_best(np.zeros(3)) == 0


class TestProperties:
    def test_monotonic_and_sandwich_small(self):
        rng = np.random.default_rng(41)
        fam = random_linear_family(2, 2, rng)
        st = evaluate(fam, np.zeros(2))
        _, _, tilde = sld_analysis(st)
        lim = limit_fim(st, tilde).entries
        prev = None
        for p in range(1, 5):
            cp = cp_at(st, tilde, p).entries / p
            tp = compute_tp_exact(st, tilde, p).entries / p
            assert np.all(lim <= tp + 1e-8)
            assert np.all(tp <= cp + 1e-8)
            if prev is not None:
                assert np.all(cp <= prev + 1e-9)
            prev = cp

    def test_reparametrization_c1_aggregate(self, qubit_state):
        # ||C_1||_F is invariant under nonsingular reparametrizations.
        st = qubit_state(0.4)
        _, _, tilde = sld_analysis(st)
        base = np.linalg.norm(cp_at(st, tilde, 1).entries)
        fam = build_scenario(parse_scenario("qubit3", delta=0.4))
        rng = np.random.default_rng(43)
        for _ in range(3):
            m = rng.standard_normal((3, 3)) + 0.5 * np.eye(3)
            minv = np.linalg.inv(m)
            gens = [sum(minv[j, k] * fam.generators[j] for j in range(3)) for k in range(3)]
            st2 = evaluate(StateFamily.linear(fam.rho0, gens), np.zeros(3))
            _, _, tilde2 = sld_analysis(st2)
            norm2 = np.linalg.norm(cp_at(st2, tilde2, 1).entries)
            assert norm2 == pytest.approx(base, abs=1e-7)


class TestShapeGroups:
    """Grouped walks against walks with one shape per group."""

    @pytest.mark.parametrize("case", ["qubit3-0", "qubit3-0.5", "qutrit8-0", "qutrit8-0.1",
                                      "d2", "d3", "d4"])
    def test_grouped_matches_one_shape_per_group(self, monkeypatch, case):
        if case.startswith("d"):
            d = int(case[1:])
            fam = random_linear_family(d, 3, np.random.default_rng(70 + d))
            top = {2: 10, 3: 6, 4: 4}[d]
        else:
            preset, delta = case.rsplit("-", 1)
            fam = build_scenario(parse_scenario(preset, delta=float(delta)))
            top = 10 if preset == "qubit3" else 5
        st = evaluate(fam, np.zeros(fam.n))
        _, fisher, tilde = sld_analysis(st)
        rng = np.random.default_rng(5)
        rld_ops = [rng.standard_normal((st.dim,) * 2) + 1j * rng.standard_normal((st.dim,) * 2)
                   for _ in range(fam.n)]
        ps = range(1, top + 1)
        grouped = tensor.block_sweep(st, tilde, ps, rld_ops, cp=True, fbar=True)
        assert any(len(g.shapes) > 1 for g in tensor._walk_plan(tuple(ps), st.dim))
        monkeypatch.setattr(tensor, "GROUP_MAX_DIM", 0)
        assert all(len(g.shapes) == 1 for g in tensor._walk_plan(tuple(ps), st.dim))
        single = tensor.block_sweep(st, tilde, ps, rld_ops, cp=True, fbar=True)
        for p in ps:
            pairs = [(grouped[p].cp, single[p].cp), (grouped[p].cp_rld, single[p].cp_rld)]
            for a, b in pairs + list(zip(grouped[p].candidates, single[p].candidates)):
                assert a.meta == b.meta
                scale = float(np.max(np.abs(b.entries)))
                assert np.allclose(a.entries, b.entries, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("preset, ps, rld", [
        ("qubit3", range(1, 11), True), ("qutrit8", range(1, 6), False),
    ])
    def test_eigensolves_per_group(self, monkeypatch, preset, ps, rld):
        # One stacked eigensolve per group and consumer, not one per shape.
        fam = build_scenario(parse_scenario(preset, delta=0.3))
        st = evaluate(fam, np.zeros(fam.n))
        _, fisher, tilde = sld_analysis(st)
        rld_ops = None
        if rld:
            rlds = compute_rld(st)
            rld_ops = reparametrize(rlds, compute_rld_fisher(st, rlds, fisher))
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(tensor.np.linalg, name,
                                lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
        tensor.block_sweep(st, tilde, ps, rld_ops, cp=True)
        groups = tensor._walk_plan(tuple(ps), st.dim)
        shapes = sum(len(g.shapes) for g in groups)
        assert len(calls) <= (2 if rld else 1) * len(groups) < shapes
