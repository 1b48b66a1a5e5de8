"""Dense float64 tensors on a recording tape, with reverse-mode differentiation.

Operations record onto the innermost active ``Tape`` (``with Tape(): ...``)
whenever an input requires gradients; outside a tape they only compute values,
which keeps evaluation passes cheap. Everything is double precision and
single-threaded; a tape and the tensors it produced must not be shared
mutably across threads.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor", "Tape", "Rng", "ShapeError",
    "constant", "parameter", "zeros",
    "matmul", "matmul_nt", "linear", "elementwise", "add", "sub", "mul",
    "concat", "activation", "sigmoid", "tanh", "softmax", "masked_softmax",
    "dropout", "exp", "log", "absolute", "neg", "scale",
    "scalar_mul", "scalar_add", "sum_all",
    "take_rows", "slice_rows", "slice_cols", "pick_cols", "mask_rows",
    "lstm_scan", "backward", "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    """A dense float64 array with a gradient buffer of the same shape.

    Leaf tensors (parameters, constants) have ``tape_id is None``; tensors
    produced by a recorded operation remember the tape and their node index.
    The gradient buffer reads as all-zero until something accumulates into it.
    """

    __slots__ = ("values", "_grad", "requires_grad", "_tape", "tape_id")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self._grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._tape: weakref.ref[Tape] | None = None
        self.tape_id: int | None = None

    @property
    def tape(self) -> Tape | None:
        """The tape that recorded this tensor, or None once that tape is freed.

        Held weakly: the tape owns its nodes and so their outputs, and a strong
        reference back would make every tape a cycle that only a full garbage
        collection frees.
        """
        return None if self._tape is None else self._tape()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self._grad is None:
            self._grad = g.copy()
        else:
            self._grad += g

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    """A trainable leaf. A float64 array is adopted, not copied, so the caller
    hands it over (initializers pass freshly drawn arrays)."""
    return Tensor(values, requires_grad=True)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


class _Node:
    __slots__ = ("name", "inputs", "out", "backward")

    def __init__(self, name: str, inputs: tuple[Tensor, ...], out: Tensor,
                 backward: Callable[[np.ndarray], tuple]):
        self.name = name
        self.inputs = inputs
        self.out = out
        self.backward = backward


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of operations; inputs of a node always precede it."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()

    def first_nonfinite_node(self) -> _Node | None:
        for node in self.nodes:
            if not np.all(np.isfinite(node.out.values)):
                return node
        return None

    def backward_from(self, loss: Tensor) -> None:
        nodes = self.nodes
        adjoint: list[np.ndarray | None] = [None] * (loss.tape_id + 1)
        adjoint[loss.tape_id] = np.ones_like(loss.values)
        for idx in range(loss.tape_id, -1, -1):
            g = adjoint[idx]
            adjoint[idx] = None
            if g is None:
                continue
            node = nodes[idx]
            node.out.accumulate_grad(g)
            for inp, gin in zip(node.inputs, node.backward(g)):
                if gin is None or not inp.requires_grad:
                    continue
                if inp.tape_id is None:
                    inp.accumulate_grad(gin)
                else:
                    prev = adjoint[inp.tape_id]
                    adjoint[inp.tape_id] = gin if prev is None else prev + gin


def _record(name: str, out_values: np.ndarray, inputs: tuple[Tensor, ...],
            backward: Callable[[np.ndarray], tuple]) -> Tensor:
    out = Tensor(out_values)
    if _TAPE_STACK and any(i.requires_grad for i in inputs):
        tape = _TAPE_STACK[-1]
        out.requires_grad = True
        out._tape = weakref.ref(tape)
        out.tape_id = len(tape.nodes)
        tape.nodes.append(_Node(name, inputs, out, backward))
    return out


class Rng:
    """Seeded pseudo-random source; identical seeds give identical sequences.

    ``split`` derives independent child streams without disturbing the parent,
    so e.g. data shuffling and per-step draws can consume separate streams.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def split(self, n: int) -> list["Rng"]:
        return [Rng(self.seed, _seq=s) for s in self._seq.spawn(n)]

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        out = self._gen.integers(low, high, size=size)
        return int(out) if size is None else out

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul needs [m,k] x [k,n], got {av.shape} x {bv.shape}")

    def bk(g):
        return (g @ bv.T if a.requires_grad else None,
                av.T @ g if b.requires_grad else None)

    return _record("matmul", av @ bv, (a, b), bk)


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T without materializing a transpose node."""
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[1]:
        raise ShapeError(f"matmul_nt needs [m,k] x [n,k], got {av.shape} x {bv.shape}")

    def bk(g):
        return (g @ bv if a.requires_grad else None,
                g.T @ av if b.requires_grad else None)

    return _record("matmul_nt", av @ bv.T, (a, b), bk)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T (+ b), with w shaped [out, in] and b shaped [out]."""
    xv, wv = x.values, w.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[1]:
        raise ShapeError(f"linear needs x [n,in] and w [out,in], got {xv.shape} and {wv.shape}")
    out = xv @ wv.T
    if b is None:
        def bk(g):
            return (g @ wv if x.requires_grad else None,
                    g.T @ xv if w.requires_grad else None)

        return _record("linear", out, (x, w), bk)

    bv = b.values
    if bv.shape != (wv.shape[0],):
        raise ShapeError(f"linear bias must have shape [{wv.shape[0]}], got {bv.shape}")

    def bk(g):
        return (g @ wv if x.requires_grad else None,
                g.T @ xv if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return _record("linear", out + bv, (x, w, b), bk)


def elementwise(a: Tensor, b: Tensor, kind: str) -> Tensor:
    av, bv = a.values, b.values
    if av.shape != bv.shape:
        raise ShapeError(f"elementwise {kind} needs equal shapes, got {av.shape} and {bv.shape}")
    if kind == "add":
        out = av + bv

        def bk(g):
            return g, g
    elif kind == "sub":
        out = av - bv

        def bk(g):
            return g, -g
    elif kind == "mul":
        out = av * bv

        def bk(g):
            return (g * bv if a.requires_grad else None,
                    g * av if b.requires_grad else None)
    else:
        raise ValueError(f"unknown elementwise kind {kind!r}")
    return _record(kind, out, (a, b), bk)


def add(a: Tensor, b: Tensor) -> Tensor:
    return elementwise(a, b, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    return elementwise(a, b, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    return elementwise(a, b, "mul")


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat needs at least one part")
    vals = [p.values for p in parts]
    ndim = vals[0].ndim
    for v in vals[1:]:
        if v.ndim != ndim or any(v.shape[d] != vals[0].shape[d] for d in range(ndim) if d != axis):
            raise ShapeError(f"concat axis {axis}: inconsistent shapes {[v.shape for v in vals]}")
    out = np.concatenate(vals, axis=axis)
    offsets = np.cumsum([v.shape[axis] for v in vals])[:-1]

    def bk(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record("concat", out, tuple(parts), bk)


def activation(x: Tensor, kind: str) -> Tensor:
    xv = x.values
    if kind == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-xv))

        def bk(g, s=out):
            return (g * s * (1.0 - s),)
    elif kind == "tanh":
        out = np.tanh(xv)

        def bk(g, t=out):
            return (g * (1.0 - t * t),)
    else:
        raise ValueError(f"unknown activation kind {kind!r}")
    return _record(kind, out, (x,), bk)


def sigmoid(x: Tensor) -> Tensor:
    return activation(x, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    return activation(x, "tanh")


def softmax(x: Tensor, axis: int) -> Tensor:
    xv = x.values
    shifted = xv - xv.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bk(g, y=out):
        return ((g - (g * y).sum(axis=axis, keepdims=True)) * y,)

    return _record("softmax", out, (x,), bk)


def masked_softmax(x: Tensor, key_mask: np.ndarray) -> Tensor:
    """Row softmax over the columns where key_mask is True; masked entries are 0.

    key_mask is a boolean vector over columns, shared by all rows. At least
    one column must be unmasked.
    """
    xv = x.values
    key_mask = np.asarray(key_mask, dtype=bool)
    if xv.ndim != 2 or key_mask.shape != (xv.shape[1],):
        raise ShapeError(f"masked_softmax needs x [n,m] and mask [m], got {xv.shape} and {key_mask.shape}")
    if not key_mask.any():
        raise ShapeError("masked_softmax: all keys are masked")
    s = np.where(key_mask[None, :], xv, -np.inf)
    shifted = s - s.max(axis=1, keepdims=True)
    e = np.where(key_mask[None, :], np.exp(shifted), 0.0)
    out = e / e.sum(axis=1, keepdims=True)

    def bk(g, y=out):
        return ((g - (g * y).sum(axis=1, keepdims=True)) * y,)

    return _record("masked_softmax", out, (x,), bk)


def dropout(x: Tensor, rate: float, rng: Rng | None, training: bool) -> Tensor:
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.values.shape) >= rate) / (1.0 - rate)

    def bk(g):
        return (g * keep,)

    return _record("dropout", x.values * keep, (x,), bk)


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.values)

    def bk(g, e=out):
        return (g * e,)

    return _record("exp", out, (x,), bk)


def log(x: Tensor) -> Tensor:
    xv = x.values

    def bk(g):
        return (g / xv,)

    return _record("log", np.log(xv), (x,), bk)


def absolute(x: Tensor) -> Tensor:
    xv = x.values

    def bk(g):
        return (g * np.sign(xv),)

    return _record("abs", np.abs(xv), (x,), bk)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a plain (non-differentiated) scalar constant."""

    def bk(g):
        return (g * c,)

    return _record("scale", x.values * c, (x,), bk)


def neg(x: Tensor) -> Tensor:
    return scale(x, -1.0)


def _as_scalar(t: Tensor, op: str) -> np.ndarray:
    if t.values.size != 1:
        raise ShapeError(f"{op} needs a single-element scalar tensor, got shape {t.shape}")
    return t.values.reshape(())


def scalar_mul(x: Tensor, s: Tensor) -> Tensor:
    sv = _as_scalar(s, "scalar_mul")
    xv = x.values

    def bk(g):
        return (g * sv if x.requires_grad else None,
                np.array([(g * xv).sum()]) if s.requires_grad else None)

    return _record("scalar_mul", xv * sv, (x, s), bk)


def scalar_add(x: Tensor, s: Tensor) -> Tensor:
    sv = _as_scalar(s, "scalar_add")

    def bk(g):
        return (g, np.array([g.sum()]) if s.requires_grad else None)

    return _record("scalar_add", x.values + sv, (x, s), bk)


def sum_all(x: Tensor) -> Tensor:
    shape = x.values.shape

    def bk(g):
        return (np.full(shape, g.reshape(-1)[0]),)

    return _record("sum_all", np.array([x.values.sum()]), (x,), bk)


def take_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows by index; gradients scatter-add back to the source rows."""
    indices = np.asarray(indices, dtype=np.intp)
    xv = x.values
    if indices.size and (indices.min() < 0 or indices.max() >= xv.shape[0]):
        raise IndexError(f"row index out of range for {xv.shape[0]} rows: "
                         f"[{indices.min()}, {indices.max()}]")

    def bk(g):
        dx = np.zeros_like(xv)
        np.add.at(dx, indices, g)
        return (dx,)

    return _record("take_rows", xv[indices], (x,), bk)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    xv = x.values

    def bk(g):
        dx = np.zeros_like(xv)
        dx[start:stop] = g
        return (dx,)

    return _record("slice_rows", xv[start:stop].copy(), (x,), bk)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    xv = x.values

    def bk(g):
        dx = np.zeros_like(xv)
        dx[:, start:stop] = g
        return (dx,)

    return _record("slice_cols", xv[:, start:stop].copy(), (x,), bk)


def pick_cols(x: Tensor, ids: np.ndarray) -> Tensor:
    """Select one entry per row, returning a column [n, 1]."""
    ids = np.asarray(ids, dtype=np.intp)
    xv = x.values
    rows = np.arange(xv.shape[0])
    if ids.shape != (xv.shape[0],):
        raise ShapeError(f"pick_cols needs one id per row, got {ids.shape} for {xv.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= xv.shape[1]):
        raise IndexError(f"column id out of range for {xv.shape[1]} columns")

    def bk(g):
        dx = np.zeros_like(xv)
        dx[rows, ids] = g[:, 0]
        return (dx,)

    return _record("pick_cols", xv[rows, ids][:, None], (x,), bk)


def mask_rows(x: Tensor, col: np.ndarray) -> Tensor:
    """Scale each row by a fixed 0/1 (or float) coefficient column [n, 1]."""
    col = np.asarray(col, dtype=np.float64).reshape(-1, 1)
    if col.shape[0] != x.values.shape[0]:
        raise ShapeError(f"mask_rows needs one coefficient per row, got {col.shape[0]} for {x.shape}")

    def bk(g):
        return (g * col,)

    return _record("mask_rows", x.values * col, (x,), bk)


def lstm_scan(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, steps: int,
              mask: np.ndarray | None = None, reverse: bool = False,
              proj: Tensor | None = None, force: np.ndarray | None = None,
              gold: np.ndarray | None = None) -> Tensor:
    """A whole LSTM scan over ``steps`` timesteps, recorded as one operation.

    ``x`` is the non-recurrent input of every step, time-major: row
    ``t * B + b`` is batch row b at step t. Its projection through ``w_x`` is
    one GEMM over all ``T*B`` rows before the scan starts. Weights are
    gate-stacked (input, forget, cell, output) as in ``encoder.lstm_step``.

    Without ``proj`` the result is the hidden states ``[T*B, h]``. A [B, T]
    bool ``mask`` multiplies state and output by 0 at masked steps, so the scan
    holds its state at zero there; ``reverse`` scans from the last step down.

    With ``proj`` ([K, h]) the scan is a decoder. Step t also reads a
    previous-label vector through the first K columns of ``w_x`` and emits
    ``y_t = softmax(h_t @ proj.T)``. That vector is zero at t = 0 and
    ``y_{t-1}`` after, except in the rows where ``force[t]`` ([T, B] bool) is
    set, which read the gold row ``gold[(t-1)*B + b]`` ([T*B, K]) instead. The
    result is ``[T*B, h + K]``: the hidden states, then the distributions.

    Backward is hand-written BPTT: the gradients of ``x``, ``w_x``, ``w_h``,
    ``b`` and ``proj`` each come from one product over the whole sequence.
    """
    xv, wx, wh, bv = x.values, w_x.values, w_h.values, b.values
    hid = wh.shape[-1]
    K = 0 if proj is None else proj.values.shape[0]
    rows = xv.shape[0] if xv.ndim == 2 else 0
    if (steps < 1 or rows < steps or rows % steps or wh.shape != (4 * hid, hid)
            or wx.shape != (4 * hid, K + xv.shape[1]) or bv.shape != (4 * hid,)
            or (proj is not None and proj.values.shape != (K, hid))):
        raise ShapeError(f"lstm_scan: x {xv.shape} over {steps} steps does not match "
                         f"w_x {wx.shape}, w_h {wh.shape}, b {bv.shape}"
                         + ("" if proj is None else f", proj {proj.shape}"))
    T, B = steps, rows // steps
    if mask is not None and mask.shape != (B, T):
        raise ShapeError(f"lstm_scan: mask {mask.shape} is not [B, T] = {(B, T)}")
    if force is not None and (K == 0 or force.shape != (T, B) or gold is None
                              or gold.shape != (T * B, K)):
        raise ShapeError("lstm_scan: teacher forcing needs proj, force [T, B] and gold [T*B, K]")
    keep = None if mask is None else mask.T[:, :, None].astype(np.float64)
    gold_t = None if force is None else gold.reshape(T, B, K)
    w_in, w_y = wx[:, K:], wx[:, :K]
    i_f, cell, out_gate = slice(0, 2 * hid), slice(2 * hid, 3 * hid), slice(3 * hid, None)

    gx = (xv @ w_in.T + bv).reshape(T, B, 4 * hid)
    acts = np.empty((T, B, 4 * hid))       # gate activations
    c_prev = np.empty((T, B, hid))
    h_prev = np.empty((T, B, hid))
    tanh_c = np.empty((T, B, hid))
    hs = np.empty((T, B, hid))
    ys = np.empty((T, B, K))
    prevs = np.zeros((T, B, K))            # previous-label vectors read
    h = np.zeros((B, hid))
    c = np.zeros((B, hid))
    order = range(T - 1, -1, -1) if reverse else range(T)
    for t in order:
        gates = gx[t]
        if K and t:
            prev = ys[t - 1] if force is None else np.where(force[t][:, None], gold_t[t - 1],
                                                            ys[t - 1])
            prevs[t] = prev
            gates = gates + prev @ w_y.T
        gates = gates + h @ wh.T
        a = acts[t]
        a[:, i_f] = 1.0 / (1.0 + np.exp(-gates[:, i_f]))
        a[:, cell] = np.tanh(gates[:, cell])
        a[:, out_gate] = 1.0 / (1.0 + np.exp(-gates[:, out_gate]))
        c_prev[t] = c
        h_prev[t] = h
        c = a[:, hid:2 * hid] * c + a[:, :hid] * a[:, cell]
        tanh_c[t] = np.tanh(c)
        h = a[:, out_gate] * tanh_c[t]
        if keep is not None:
            h = h * keep[t]
            c = c * keep[t]
        hs[t] = h
        if K:
            z = h @ proj.values.T
            e = np.exp(z - z.max(axis=1, keepdims=True))
            ys[t] = e / e.sum(axis=1, keepdims=True)

    def bk(g):
        g = g.reshape(T, B, hid + K)
        d_act = acts * (1.0 - acts)
        d_act[..., cell] = 1.0 - acts[..., cell] ** 2
        d_gates = np.empty((T, B, 4 * hid))
        d_z = np.empty((T, B, K))
        dh = np.zeros((B, hid))
        dc = np.zeros((B, hid))
        dy = None                          # gradient reaching y_t from step t + 1
        for t in reversed(order):
            dh = dh + g[t, :, :hid]
            if K:
                y = ys[t]
                gy = g[t, :, hid:] if dy is None else g[t, :, hid:] + dy
                d_z[t] = (gy - (gy * y).sum(axis=1, keepdims=True)) * y
                dh += d_z[t] @ proj.values
            if keep is not None:
                dh = dh * keep[t]
                dc = dc * keep[t]
            a = acts[t]
            dc = dc + dh * a[:, out_gate] * (1.0 - tanh_c[t] ** 2)
            dg = d_gates[t]
            np.multiply(dc, a[:, cell], out=dg[:, :hid])
            np.multiply(dc, c_prev[t], out=dg[:, hid:2 * hid])
            np.multiply(dc, a[:, :hid], out=dg[:, cell])
            np.multiply(dh, tanh_c[t], out=dg[:, out_gate])
            dg *= d_act[t]
            dc = dc * a[:, hid:2 * hid]
            dh = dg @ wh
            if K and t:
                dy = dg @ w_y
                if force is not None:
                    dy[force[t]] = 0.0
        d_gates = d_gates.reshape(T * B, 4 * hid)
        grads = [
            d_gates @ w_in if x.requires_grad else None,
            d_gates.T @ (np.concatenate([prevs.reshape(T * B, K), xv], axis=1) if K else xv)
            if w_x.requires_grad else None,
            d_gates.T @ h_prev.reshape(T * B, hid) if w_h.requires_grad else None,
            d_gates.sum(axis=0) if b.requires_grad else None,
        ]
        if proj is not None:
            grads.append(d_z.reshape(T * B, K).T @ hs.reshape(T * B, hid)
                         if proj.requires_grad else None)
        return tuple(grads)

    out = hs if proj is None else np.concatenate([hs, ys], axis=2)
    inputs = (x, w_x, w_h, b) if proj is None else (x, w_x, w_h, b, proj)
    return _record("lstm_scan", out.reshape(T * B, hid + K), inputs, bk)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every reachable tensor's grad buffer."""
    if loss.values.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss.tape
    if tape is None:
        raise ValueError("loss is not attached to a live tape (nothing was recorded, "
                         "or the tape was freed)")
    tape.backward_from(loss)


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               epsilon: float = 1e-5) -> float:
    """Worst relative error between tape gradients of f() and central differences.

    f must be deterministic and re-runnable; it is evaluated twice per
    coordinate of every parameter. The relative-error denominator floors at
    1e-8 so exact zeros compare cleanly.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    for p in params:
        p.zero_grad()
    with Tape():
        out = f()
        backward(out)
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.values.reshape(-1)
        aflat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up = f().item()
            flat[i] = orig - epsilon
            down = f().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
