"""Unit and property tests for the reverse-mode engine."""

import inspect
import math

import numpy as np
import pytest

from xtune import autodiff as ad

from reference import tanh


def finite_difference(loss_fn, params, step=1e-5):
    """Independent central-difference gradients, entry by entry."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(loss_fn().data)
            flat[i] = orig - step
            down = float(loss_fn().data)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def analytic_grads(loss_fn, params):
    ad.zero_grads(params)
    ad.backward(loss_fn())
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]


def max_rel_err(a_list, n_list):
    worst = 0.0
    for a, n in zip(a_list, n_list):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestForwardExamples:
    def test_matmul_hand(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_gather_matrix_row_read(self):
        table = ad.Tensor([[0.5, -1.0], [2.0, 3.0]])
        out = ad.gather(table, [0])
        assert out.data.tolist() == [[0.5, -1.0]]

    def test_matmul_shape_error_names_op_and_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"matmul.*\(1, 2\).*\(1, 2\)"):
            ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0, 2.0]]))

    def test_gather_matrix_row_out_of_range(self):
        with pytest.raises(IndexError, match="gather: index 3 out of range for 3 entries"):
            ad.gather(ad.Tensor(np.eye(3)), [0, 3])

    def test_segment_mean_hand(self):
        m = ad.Tensor([[1.0, 2.0], [3.0, 4.0], [10.0, 20.0]])
        out = ad.segment_mean(m, [1, 1, 0], 2)
        assert out.data.tolist() == [[10.0, 20.0], [2.0, 3.0]]

    def test_segment_log_softmax_normalizes_each_segment(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=7)
        ids = [0, 0, 2, 2, 2, 0, 3]   # segment 1 is empty
        out = ad.segment_log_softmax(ad.Tensor(v), ids, 4).data
        for k in (0, 2, 3):
            members = [i for i, s in enumerate(ids) if s == k]
            assert np.allclose(out[members], ad.log_softmax(ad.Tensor(v[members])).data,
                               rtol=0, atol=1e-15)

    @pytest.mark.parametrize("op,operand", [
        (ad.segment_mean, np.ones((3, 2))),
        (ad.segment_log_softmax, np.ones(3)),
    ])
    def test_segment_ids_out_of_range(self, op, operand):
        for ids in ([0, 1, 2], [0, -1, 1]):
            with pytest.raises(IndexError, match="segment id"):
                op(ad.Tensor(operand), ids, 2)

    def test_segment_mean_empty_segment_rejected(self):
        with pytest.raises(ValueError, match="segment 1"):
            ad.segment_mean(ad.Tensor(np.ones((2, 2))), [0, 2], 3)


class TestLogSoftmax:
    def test_symmetry(self):
        out = ad.log_softmax(ad.Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [-math.log(2)] * 2, atol=1e-12)

    def test_large_inputs_stable(self):
        out = ad.log_softmax(ad.Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert abs(out.data[0]) < 1e-9
        assert abs(out.data[1] + 1000.0) < 1e-9

    def test_exps_sum_to_one(self):
        # oracle: direct summation of exponentials
        out = ad.log_softmax(ad.Tensor([1.0, 2.0, 3.0]))
        assert abs(np.exp(out.data).sum() - 1.0) < 1e-9

    def test_normalization_2d_rows(self):
        rng = np.random.default_rng(3)
        out = ad.log_softmax(ad.Tensor(rng.normal(size=(5, 7))), axis=1)
        assert np.allclose(np.exp(out.data).sum(axis=1), 1.0, atol=1e-9)

    def test_nan_input_rejected(self):
        with pytest.raises(ad.NumericError):
            ad.log_softmax(ad.Tensor([np.nan, 0.0]))


class TestDetach:
    def test_identity_forward_bitwise(self):
        x = ad.Tensor(np.random.default_rng(0).normal(size=(4,)))
        det = ad.detach(x)
        assert det.data.tobytes() == x.data.tobytes()

    def test_gradient_is_zero_through_barrier(self):
        x = ad.Tensor([1.0, 2.0, 3.0])
        ad.backward(ad.sum(ad.detach(x)))
        assert x.grad is None

    def test_product_with_detached_snapshot(self):
        # loss = sum(x * snapshot(x)): gradient equals the detached values,
        # confirmed by the finite-difference oracle on the same frozen branch
        x = ad.Tensor([1.5, -2.0, 0.5])
        frozen = ad.detach(x)
        loss_fn = lambda: ad.sum(ad.mul(x, frozen))
        ana = analytic_grads(loss_fn, [x])
        num = finite_difference(loss_fn, [x])
        assert np.allclose(ana[0], frozen.data, atol=1e-12)
        assert np.allclose(num[0], frozen.data, atol=1e-6)

    def test_ancestor_grads_untouched(self):
        x = ad.Tensor([1.0, 2.0])
        y = tanh(x)
        loss = ad.sum(ad.detach(ad.mul(y, y)))
        ad.backward(loss)
        assert x.grad is None and y.grad is None


class TestBackward:
    def test_sum_gradient_ones(self):
        x = ad.Tensor([5.0, 6.0, 7.0])
        ad.backward(ad.sum(x))
        assert x.grad.tolist() == [1.0, 1.0, 1.0]

    def test_elementwise_square(self):
        x = ad.Tensor([1.0, 2.0])
        ad.backward(ad.sum(ad.mul(x, x)))
        assert x.grad.tolist() == [2.0, 4.0]

    def test_fanout_accumulates(self):
        x = ad.Tensor([3.0])
        y = ad.add(x, x)
        ad.backward(ad.sum(y))
        assert x.grad.tolist() == [2.0]

    def test_non_scalar_root_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.Tensor([1.0, 2.0]))

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w = ad.Tensor(rng.normal(size=(3, 3)))
        x = ad.Tensor(rng.normal(size=(2, 3)))
        b = ad.Tensor(rng.normal(size=(3,)))

        def loss_fn():
            return ad.sum(tanh(ad.add_rowvec(ad.matmul(x, w), b)))

        params = [w, x, b]
        err = max_rel_err(analytic_grads(loss_fn, params),
                          finite_difference(loss_fn, params))
        assert err < 1e-4


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        x = ad.Tensor([1.0, -2.0, 0.3])
        loss_fn = lambda: ad.sum(ad.mul(x, x))
        err = max_rel_err(analytic_grads(loss_fn, [x]), finite_difference(loss_fn, [x], step=1e-5))
        assert err < 1e-6

    def test_all_detached_inputs_give_zero_everywhere(self):
        x = ad.Tensor([0.4, 0.6])
        frozen = ad.detach(x)
        loss_fn = lambda: ad.sum(tanh(frozen))
        ana = analytic_grads(loss_fn, [x])
        num = finite_difference(loss_fn, [x])
        assert np.all(ana[0] == 0.0) and np.allclose(num[0], 0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Random-graph property: every op against finite differences.

OPS = {
    "add", "mul", "scale", "matmul", "add_rowvec", "gather",
    "embed_mix", "sum", "reshape", "kl_div", "log_softmax", "segment_mean",
    "segment_log_softmax",
}


def _random_graph_case(rng):
    """A small random composite graph touching a random subset of primitives."""
    d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    a = ad.Tensor(rng.normal(size=(d1, d2)))
    b = ad.Tensor(rng.normal(size=(d1, d2)))
    w = ad.Tensor(rng.normal(size=(d2, d2)))
    v = ad.Tensor(rng.normal(size=(d2,)))
    params = [a, b, w, v]

    def loss_fn():
        x = ad.add(a, b)
        x = ad.matmul(x, w)
        choice = int(rng_choice)
        divergence = None
        if choice in (0, 1):
            # x and b as the embedding and position tables, scaled so that
            # tanh does not saturate; pairs repeat, and choice 1 adds noise
            x = ad.embed_mix(ad.scale(x, 0.25), ad.scale(b, 0.25), w, v, rng_ids, rng_positions,
                             rng_noise if choice == 1 else None)
        elif choice == 2:
            # both operands carry gradient, and the floor clips some entries
            # of each, so both sides' masks are checked
            divergence = ad.kl_div(x, b, rng_kl_weights, -0.5)
        elif choice == 3:
            x = ad.log_softmax(x, axis=1)
        elif choice == 4:
            x = ad.mul(x, ad.add(x, ad.scale(b, -1.0)))
        elif choice == 5:
            # two runs of the row-major entries, as packed sequences lie
            flat = ad.segment_log_softmax(ad.reshape(x, (d1 * d2,)), rng_entry_segments, 2)
            x = ad.reshape(flat, (d1, d2))
        x = ad.add_rowvec(x, v)
        rows = ad.gather(x, list(rng_rows))
        pooled = ad.segment_mean(ad.segment_mean(rows, rng_row_segments, 2), [0, 0], 1)
        picked = ad.gather(ad.reshape(pooled, (d2,)), list(rng_gather))
        loss = ad.scale(ad.sum(ad.mul(picked, picked)), 0.5)
        return loss if divergence is None else ad.add(loss, divergence)

    rng_choice = rng.integers(0, 6)
    rng_ids, rng_positions = rng.integers(0, d1, (2, d1))
    rng_noise = rng.normal(0.0, 0.25, (d1, d2))
    rng_rows = rng.integers(0, d1, size=3)
    rng_row_segments = rng.permutation([0, 1, int(rng.integers(0, 2))])
    cut = int(rng.integers(2, d1 * d2 - 1))   # both runs hold >= 2 entries
    rng_entry_segments = np.repeat([0, 1], [cut, d1 * d2 - cut])
    rng_gather = rng.integers(0, d2, size=2)
    # one weight per row, or one for all
    rng_kl_weights = rng.random(d1) + 0.5 if rng.random() < 0.5 else float(rng.random()) + 0.5
    return loss_fn, params


def test_primitive_gradients_on_100_random_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        loss_fn, params = _random_graph_case(rng)
        ana = analytic_grads(loss_fn, params)
        num = finite_difference(loss_fn, params)
        assert max_rel_err(ana, num) < 1e-4


def test_leaf_grads_have_their_tensors_shape_and_dtype():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        loss_fn, params = _random_graph_case(rng)
        ad.zero_grads(params)
        ad.backward(loss_fn())
        for p in params:
            assert isinstance(p.grad, np.ndarray)
            assert p.grad.shape == p.data.shape and p.grad.dtype == np.float64


def test_shared_gradient_array_is_never_added_into():
    # z = (a + b) + a: the outer add hands one array to a and to the inner
    # add, whose backward hands that same array on to a and b; a's second
    # contribution must not change b's gradient
    a = ad.Tensor([1.0, 2.0])
    b = ad.Tensor([3.0, 4.0])
    scale = ad.constant([0.5, -3.0])
    ad.backward(ad.sum(ad.mul(ad.add(ad.add(a, b), a), scale)))
    assert b.grad.tolist() == [0.5, -3.0]
    assert a.grad.tolist() == [1.0, -6.0]


def graph_ops(root):
    """The op names of every node reachable from ``root``."""
    ops, stack, seen = set(), [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.add(node.op)
            stack.extend(node.parents)
    return ops


def test_primitive_registry_lists_all_ops():
    # ``OPS`` is every public function of the module that builds a graph
    # node, and the random graphs above use each of them
    helpers = {"constant", "detach", "backward", "zero_grads"}
    public = {name for name, fn in vars(ad).items()
              if inspect.isfunction(fn) and fn.__module__ == ad.__name__
              and not name.startswith("_")}
    assert public - helpers == OPS
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(100):
        loss_fn, _params = _random_graph_case(rng)
        seen |= graph_ops(loss_fn())
    assert seen - {"leaf", "constant"} == OPS


@pytest.mark.parametrize("width", [None, 1, 16])
@pytest.mark.parametrize("n_index", [0, 1, 420])
def test_scatter_add_is_bitwise_np_add_at(width, n_index):
    # repeated indices add in index order, as np.add.at adds them
    rng = np.random.default_rng(n_index + (width or 0))
    n_rows = 220
    index = rng.integers(0, 30 if n_index > 1 else n_rows, n_index).astype(np.intp)
    shape = (n_index,) if width is None else (n_index, width)
    values = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-8, 8, shape)
    want = np.zeros((n_rows,) + shape[1:])
    np.add.at(want, index, values)
    got = ad._scatter_add(index, values, n_rows)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape,weights", [((6, 5), "rows"), ((7,), "one")])
def test_kl_div_is_bitwise_the_composed_chain(shape, weights):
    # the expressions of the eight-node chain kl_div replaces: a floor on
    # each operand, exp, sub, mul, a constant weight tensor, mul and sum,
    # with each gradient accumulated into zeros as the chain's nodes did
    rng = np.random.default_rng(11)
    floor = math.log(1e-12)
    p, q = (rng.normal(0.0, 20.0, shape) for _ in range(2))   # some below the floor
    w = rng.random(shape[0]) if weights == "rows" else 0.37
    W = np.broadcast_to(np.reshape(w, (-1,) + (1,) * (len(shape) - 1)), shape)
    lp, lq = np.maximum(p, floor), np.maximum(q, floor)
    e, d = np.exp(lp), lp - lq
    value = (e * d * W).sum()
    g_terms = np.full_like(lp, 0.3) * W
    g_lp = np.zeros_like(lp) + (g_terms * d) * e + g_terms * e
    g_lq = np.zeros_like(lq) + -(g_terms * e)

    p_t, q_t = ad.Tensor(p), ad.Tensor(q)
    node = ad.kl_div(p_t, q_t, w, floor)
    ad.backward(ad.scale(node, 0.3))
    assert node.data.tobytes() == value.tobytes()
    assert p_t.grad.tobytes() == (g_lp * (p > floor)).tobytes()
    assert q_t.grad.tobytes() == (g_lq * (q > floor)).tobytes()


def test_gather_backward_and_segment_mean_scatter_like_np_add_at():
    rng = np.random.default_rng(5)
    m = ad.Tensor(rng.normal(size=(50, 7)))
    index = rng.integers(0, 6, 40)
    g = rng.normal(size=(40, 7))
    want = np.zeros_like(m.data)
    np.add.at(want, index, g)
    (got,) = ad.gather(m, index)._backward(g)
    assert got.tobytes() == want.tobytes()

    ids = np.repeat(np.arange(6), [3, 1, 20, 9, 7, 10])
    sums = np.zeros((6, 7))
    np.add.at(sums, ids, m.data)
    sums /= np.bincount(ids)[:, None].astype(np.float64)
    assert ad.segment_mean(m, ids, 6).data.tobytes() == sums.tobytes()


@pytest.mark.parametrize("case", ["repeated pairs", "distinct pairs", "noise"])
def test_embed_mix_is_bitwise_the_composed_chain(case):
    # the six-node chain embed_mix replaces: gather both tables, add, (add
    # the noise), matmul, add_rowvec and tanh; values and every leaf's
    # gradient must match bit for bit
    rng = np.random.default_rng(13)
    vocab, longest, dim = 40, 24, 16
    if case == "distinct pairs":
        keys = rng.choice(vocab * longest, 150, replace=False)
        ids, positions = keys // longest, keys % longest
    else:
        ids, positions = rng.integers(0, 12, 700), rng.integers(0, longest, 700)
    noise = rng.normal(0.0, 0.1, (ids.size, dim)) if case == "noise" else None
    tables = [rng.normal(0.0, 0.5, shape)
              for shape in ((vocab, dim), (longest, dim), (dim, dim), (dim,))]
    g = ad.constant(rng.normal(size=(ids.size, dim)))
    if case == "repeated pairs":
        assert np.unique(ids * longest + positions).size < ids.size / 2

    chain = [ad.Tensor(t) for t in tables]
    e, p, w, b = chain
    x = ad.add(ad.gather(e, ids), ad.gather(p, positions))
    if noise is not None:
        x = ad.add(x, ad.constant(noise))
    want = tanh(ad.add_rowvec(ad.matmul(x, w), b))
    fused = [ad.Tensor(t) for t in tables]
    got = ad.embed_mix(*fused, ids, positions, noise)
    assert got.data.tobytes() == want.data.tobytes()
    ad.backward(ad.sum(ad.mul(want, g)))
    ad.backward(ad.sum(ad.mul(got, g)))
    for c, f in zip(chain, fused):
        assert f.grad.tobytes() == c.grad.tobytes()


def test_embed_mix_rejects_bad_indices_and_noise():
    e, p, w, b = (ad.Tensor(np.ones(shape)) for shape in ((5, 2), (3, 2), (2, 2), (2,)))
    with pytest.raises(IndexError, match="embed_mix: id 5 out of range for 5 entries"):
        ad.embed_mix(e, p, w, b, [0, 5], [0, 1])
    with pytest.raises(IndexError, match="embed_mix: position -1 out of range"):
        ad.embed_mix(e, p, w, b, [0, 1], [0, -1])
    with pytest.raises(ad.ShapeError, match=r"noise of shape \(3, 2\) for 2 rows"):
        ad.embed_mix(e, p, w, b, [0, 1], [0, 1], np.zeros((3, 2)))
