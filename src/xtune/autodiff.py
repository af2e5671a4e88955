"""Minimal reverse-mode autodiff over dense float64 numpy buffers.

Small by design: the op set is exactly what the task losses need, fused
``embed_mix`` and ``kl_div`` for the encoder and the KL regularizers, plus
a stop-gradient barrier.  No broadcasting beyond scalar*tensor and
``kl_div``'s per-row weights; any other shape mismatch is an error so that
the finite-difference oracle has a small, fully checkable surface: the
tests list every op and check each one's gradients on random graphs.

Callers pack many sequences into one matrix, one row per subword, and keep
a row -> segment id array beside it.  ``segment_mean`` and
``segment_log_softmax`` reduce within segments by scattering on those ids,
so one graph of a fixed number of nodes covers a whole batch.  Step time is
per-node Python overhead, so the encoder is one node, not six, and a KL term
one node, not eight: each evaluates its chain's numpy expressions in the
same order, to the same bits.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NumericError(ValueError):
    """Non-finite values where a finite-domain operation was requested."""


class Tensor:
    """A node in the computation graph.

    Holds a float64 value buffer, a gradient (None until one arrives), a
    record of the producing op and its parents, and a stop-gradient flag.
    A node with ``stop_gradient`` set forwards its value unchanged but
    propagates zero gradient to its parents.
    """

    __slots__ = ("data", "grad", "op", "parents", "stop_gradient", "_backward")

    def __init__(self, data, op="leaf", parents=(), stop_gradient=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.op = op
        self.parents = parents
        self.stop_gradient = stop_gradient
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g):
        # never in place: ``add`` hands one gradient array to both parents
        self.grad = g if self.grad is None else self.grad + g

    def item(self):
        return float(self.data)


def constant(values):
    """A leaf node that is not a trainable parameter (no grad is read back)."""
    return Tensor(values, op="constant")


def _node(data, op, parents, backward_fn):
    out = Tensor(data, op=op, parents=parents)
    out._backward = backward_fn
    return out


def _check_same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a, b):
    _check_same_shape("add", a, b)
    def backward(g):
        return g, g
    return _node(a.data + b.data, "add", (a, b), backward)


def mul(a, b):
    _check_same_shape("mul", a, b)
    def backward(g):
        return g * b.data, g * a.data
    return _node(a.data * b.data, "mul", (a, b), backward)


def scale(a, c):
    """Multiply by a plain python scalar (the only broadcast we allow)."""
    c = float(c)
    def backward(g):
        return (g * c,)
    return _node(a.data * c, "scale", (a,), backward)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: needs 2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dims differ: {a.data.shape} @ {b.data.shape}")
    def backward(g):
        return g @ b.data.T, a.data.T @ g
    return _node(a.data @ b.data, "matmul", (a, b), backward)


def add_rowvec(m, v):
    """Add a length-c vector to every row of an (r, c) matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.data.shape[1] != v.data.shape[0]:
        raise ShapeError(f"add_rowvec: shapes {m.data.shape} and {v.data.shape} do not conform")
    def backward(g):
        return g, g.sum(axis=0)
    return _node(m.data + v.data, "add_rowvec", (m, v), backward)


def _indices(op, indices, bound, what):
    """A 1-d index array whose entries all lie in [0, bound)."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"{op}: {what}s must be 1-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        bad = idx[(idx < 0) | (idx >= bound)][0]
        raise IndexError(f"{op}: {what} {bad} out of range for {bound} entries")
    return idx


def _scatter_add(index, values, n_rows):
    """Entry or row k of ``values`` added into entry or row ``index[k]`` of
    ``n_rows`` zeros.

    One ``np.bincount``, over flattened (row, column) bins for a matrix; it
    adds in the order ``np.add.at`` does, so the sums are bitwise the same.
    """
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=n_rows)
    width = values.shape[1]
    bins = ((index * width)[:, None] + np.arange(width)).reshape(-1)
    out = np.bincount(bins, weights=values.reshape(-1), minlength=n_rows * width)
    return out.reshape(n_rows, width)


def _take(op, t, indices):
    idx = _indices(op, indices, t.data.shape[0], "index")
    def backward(g):
        return (_scatter_add(idx, g, t.data.shape[0]),)
    return _node(t.data[idx], op, (t,), backward)


def gather(v, indices):
    """Select entries of a vector, or rows of a matrix; grads scatter-add
    back (repeats allowed)."""
    if v.data.ndim not in (1, 2):
        raise ShapeError(f"gather: needs a 1-d or 2-d operand, got {v.data.shape}")
    return _take("gather", v, indices)


def _segment_ids(op, segment_ids, n_rows, n_segments):
    ids = _indices(op, segment_ids, n_segments, "segment id")
    if ids.size != n_rows:
        raise ShapeError(f"{op}: {ids.size} segment ids for {n_rows} rows")
    return ids


def segment_mean(m, segment_ids, n_segments):
    """Per-segment column means of an (r, c) matrix, as (n_segments, c).

    Row i belongs to segment ``segment_ids[i]``; every segment needs a row.
    """
    if m.data.ndim != 2:
        raise ShapeError(f"segment_mean: needs a 2-d operand, got {m.data.shape}")
    ids = _segment_ids("segment_mean", segment_ids, m.data.shape[0], n_segments)
    counts = np.bincount(ids, minlength=n_segments).astype(np.float64)
    if not counts.all():
        raise ValueError(f"segment_mean: segment {int(np.argmin(counts))} has no rows")
    out = _scatter_add(ids, m.data, n_segments)
    out /= counts[:, None]
    def backward(g):
        return ((g / counts[:, None])[ids],)
    return _node(out, "segment_mean", (m,), backward)


def segment_log_softmax(v, segment_ids, n_segments):
    """Log-softmax of a 1-d vector within each segment of its entries."""
    if v.data.ndim != 1:
        raise ShapeError(f"segment_log_softmax: needs a 1-d operand, got {v.data.shape}")
    if not np.all(np.isfinite(v.data)):
        raise NumericError("segment_log_softmax: input contains NaN or Inf")
    ids = _segment_ids("segment_log_softmax", segment_ids, v.data.shape[0], n_segments)
    top = np.full(n_segments, -np.inf)
    np.maximum.at(top, ids, v.data)
    shifted = v.data - top[ids]
    sums = _scatter_add(ids, np.exp(shifted), n_segments)
    out_data = shifted - np.log(sums[ids])
    def backward(g):
        g_sums = _scatter_add(ids, g, n_segments)
        return (g - np.exp(out_data) * g_sums[ids],)
    return _node(out_data, "segment_log_softmax", (v,), backward)


def sum(a):  # noqa: A001 - deliberate, mirrors numpy.sum naming
    """Sum of all entries, as a scalar node."""
    def backward(g):
        return (np.full_like(a.data, float(g)),)
    return _node(a.data.sum(), "sum", (a,), backward)


def reshape(a, shape):
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}")
    old = a.data.shape
    def backward(g):
        return (g.reshape(old),)
    return _node(a.data.reshape(shape), "reshape", (a,), backward)


def embed_mix(emb, pos, weight, bias, ids, positions, noise=None):
    """Rows ``tanh((emb[ids] + pos[positions] + noise) weight + bias)``.  With
    no noise each distinct (id, position) pair, numbered through a
    ``len(emb) x (max(positions) + 1)`` slot table, is computed once.  The
    backward replays the six-op chain's expressions on the rows."""
    ids = _indices("embed_mix", ids, emb.data.shape[0], "id")
    positions = _indices("embed_mix", positions, pos.data.shape[0], "position")
    if noise is None:
        longest = int(positions.max(initial=-1)) + 1
        seen = np.zeros(emb.data.shape[0] * longest, bool)
        seen[keys := ids * longest + positions] = True
        pairs, slots = np.flatnonzero(seen), np.empty(seen.size, np.intp)
        slots[pairs] = np.arange(pairs.size)   # only the seen slots are read back
        piece, position = np.divmod(pairs, longest)
        x, inverse = emb.data[piece] + pos.data[position], slots[keys]
    elif noise.shape == (ids.size, weight.data.shape[0]):
        x, inverse = emb.data[ids] + pos.data[positions] + noise, slice(None)
    else:
        raise ShapeError(f"embed_mix: noise of shape {noise.shape} for {ids.size} rows")
    out_data = np.tanh(x @ weight.data + bias.data)[inverse]
    def backward(g):
        g = g * (1.0 - out_data * out_data)
        gx = g @ weight.data.T
        return (_scatter_add(ids, gx, emb.data.shape[0]),
                _scatter_add(positions, gx, pos.data.shape[0]), x[inverse].T @ g, g.sum(axis=0))
    return _node(out_data, "embed_mix", (emb, pos, weight, bias), backward)


def kl_div(p_log, q_log, weights, floor):
    """Weighted KL(P || Q) as one scalar node: the sum over entries of
    ``weights * exp(lp) * (lp - lq)``, ``lp``/``lq`` the log-probability
    operands clipped below at ``floor``.  ``weights`` is one constant per row
    (first axis) or one for all; an operand gets gradient only above the floor.
    """
    _check_same_shape("kl_div", p_log, q_log)
    floor = float(floor)
    lp, lq = np.maximum(p_log.data, floor), np.maximum(q_log.data, floor)
    w = np.broadcast_to(np.reshape(weights, (-1,) + (1,) * (lp.ndim - 1)), lp.shape)
    p, diff = np.exp(lp), lp - lq
    def backward(g):
        gw = float(g) * w
        return ((gw * diff) * p + gw * p) * (lp > floor), -(gw * p) * (lq > floor)
    return _node((p * diff * w).sum(), "kl_div", (p_log, q_log), backward)


def log_softmax(a, axis=0):
    """Numerically stabilized log-softmax along one axis."""
    if not np.all(np.isfinite(a.data)):
        raise NumericError("log_softmax: input contains NaN or Inf")
    if axis not in range(a.data.ndim):
        raise ShapeError(f"log_softmax: axis {axis} invalid for shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    def backward(g):
        return (g - np.exp(out_data) * g.sum(axis=axis, keepdims=True),)
    return _node(out_data, "log_softmax", (a,), backward)


def detach(a):
    """Identity on values, gradient barrier on the way back.

    Snapshots the value buffer (bitwise-exact copy), so a detached branch is
    frozen against later in-place edits of its source; backward never
    crosses this node into its parents.
    """
    return Tensor(a.data.copy(), op="detach", parents=(a,), stop_gradient=True)


def _toposort(root):
    """Reverse-topological order; does not descend past stop-gradient nodes."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        if not node.stop_gradient:
            stack.extend((p, False) for p in node.parents if p not in seen)
    return order


def backward(root):
    """Populate .grad on every leaf reachable from a scalar root.

    An op node's gradient is released once passed to its parents, so a
    packed batch's intermediate buffers hold no gradient copies at once.
    Leaves may share one ``.grad`` array (``add`` passes its gradient to
    both parents), so never change a ``.grad`` in place.
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.data.shape}")
    root._accumulate(np.ones_like(root.data))
    for node in reversed(_toposort(root)):
        if node.stop_gradient or node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node._backward(node.grad)):
            parent._accumulate(g)
        node.grad = None


def zero_grads(tensors):
    for t in tensors:
        t.grad = None
