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
    "constant", "parameter", "uniform_parameter",
    "matmul", "linear", "add", "mul",
    "concat", "sigmoid", "tanh", "softmax", "blend",
    "take_rows", "slice_cols", "cross_entropy",
    "lstm_scan", "gaussian_attention", "backward", "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    """A dense float64 array with a gradient buffer of the same shape.

    Leaf tensors (parameters, constants) have ``tape_id is None``; tensors
    produced by a recorded operation remember the tape and their node index.
    Backward accumulates into the gradient buffers of leaves only; the buffer
    reads as all-zero until something accumulates into it, so an intermediate
    tensor's ``grad`` stays zero.
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

    def accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` into the gradient buffer. With ``owned`` the caller hands
        ``g`` over, so a first gradient is adopted instead of copied."""
        if self._grad is None:
            self._grad = g if owned else g.copy()
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


def uniform_parameter(rng: Rng | None, bound: float, shape: tuple[int, ...]) -> Tensor:
    """A trainable leaf drawn from U(-bound, bound), or all zeros when ``rng``
    is None: the placeholder of a parameter whose values will be loaded. The
    pages of ``np.zeros`` are not touched until written, so it costs nothing."""
    return parameter(np.zeros(shape) if rng is None else rng.uniform(-bound, bound, shape))


class _Node:
    __slots__ = ("name", "inputs", "outs", "out", "backward")

    def __init__(self, name: str, inputs: tuple[Tensor, ...], outs: tuple[Tensor, ...],
                 backward: Callable):
        self.name = name
        self.inputs = inputs
        self.outs = outs
        self.out = outs[0]
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
            if not all(np.all(np.isfinite(o.values)) for o in node.outs):
                return node
        return None

    def backward_from(self, loss: Tensor) -> None:
        """One adjoint per output tensor. A node with several outputs gets the
        tuple of its adjoints, None for an output that nothing read."""
        nodes = self.nodes
        adjoint: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.values)}
        for idx in range(loss.tape_id, -1, -1):
            node = nodes[idx]
            gs = tuple(adjoint.pop(o, None) for o in node.outs)
            if all(g is None for g in gs):
                continue
            grads = node.backward(gs if len(gs) > 1 else gs[0])
            for inp, gin in zip(node.inputs, grads):
                if gin is None or not inp.requires_grad:
                    continue
                if inp.tape_id is None:
                    # A fresh array (not a view, not an incoming adjoint, not
                    # also returned for another input) has no other owner.
                    inp.accumulate_grad(gin, owned=gin.base is None
                                        and not any(gin is g for g in gs)
                                        and sum(o is gin for o in grads) == 1)
                else:
                    prev = adjoint.get(inp)
                    adjoint[inp] = gin if prev is None else prev + gin


def _record(name: str, out_values: np.ndarray | tuple[np.ndarray, ...],
            inputs: tuple[Tensor, ...], backward: Callable):
    """One node; a tuple of arrays gives one output Tensor per array."""
    several = isinstance(out_values, tuple)
    outs = tuple(map(Tensor, out_values)) if several else (Tensor(out_values),)
    if _TAPE_STACK and any(i.requires_grad for i in inputs):
        tape = _TAPE_STACK[-1]
        for out in outs:
            out.requires_grad = True
            out._tape = weakref.ref(tape)
            out.tape_id = len(tape.nodes)
        tape.nodes.append(_Node(name, inputs, outs, backward))
    return outs if several else outs[0]


class Rng(np.random.Generator):
    """A seeded PCG64 generator; identical seeds give identical sequences.

    ``split`` derives independent child streams without disturbing the parent,
    so e.g. data shuffling and per-step draws can consume separate streams. It
    keeps its own seed sequence: ``BitGenerator.seed_seq`` needs numpy 1.25.
    """

    def __init__(self, seed: int | np.random.SeedSequence):
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        super().__init__(np.random.PCG64(seq))
        self._seq = seq

    def split(self, n: int) -> list["Rng"]:
        return [Rng(s) for s in self._seq.spawn(n)]


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


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T (+ b), with w shaped [out, in] and b shaped [out]."""
    xv, wv = x.values, w.values
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[1]:
        raise ShapeError(f"linear needs x [n,in] and w [out,in], got {xv.shape} and {wv.shape}")
    out = xv @ wv.T
    inputs = (x, w)
    if b is not None:
        if b.values.shape != (wv.shape[0],):
            raise ShapeError(f"linear bias must have shape [{wv.shape[0]}], got {b.values.shape}")
        out += b.values
        inputs = (x, w, b)

    def bk(g):
        return (g @ wv if x.requires_grad else None,
                g.T @ xv if w.requires_grad else None,
                g.sum(axis=0) if b is not None and b.requires_grad else None)[:len(inputs)]

    return _record("linear", out, inputs, bk)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.values.shape != b.values.shape:
        raise ShapeError(f"{op} needs equal shapes, got {a.values.shape} and {b.values.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def bk(g):
        return g, g

    return _record("add", a.values + b.values, (a, b), bk)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    av, bv = a.values, b.values

    def bk(g):
        return (g * bv if a.requires_grad else None,
                g * av if b.requires_grad else None)

    return _record("mul", av * bv, (a, b), bk)


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


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-x.values))

    def bk(g):
        return (g * out * (1.0 - out),)

    return _record("sigmoid", out, (x,), bk)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.values)

    def bk(g):
        return (g * (1.0 - out * out),)

    return _record("tanh", out, (x,), bk)


def _softmax(xv: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(xv - xv.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_vjp(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    return (g - (g * y).sum(axis=axis, keepdims=True)) * y


def softmax(x: Tensor, axis: int) -> Tensor:
    out = _softmax(x.values, axis)

    def bk(g):
        return (_softmax_vjp(g, out, axis),)

    return _record("softmax", out, (x,), bk)


def blend(rational: Tensor, intuitive: Tensor, logits: Tensor) -> Tensor:
    """``intuitive + r * (rational - intuitive)``, ``r`` the row softmax of ``logits``."""
    _same_shape(rational, intuitive, "blend")
    _same_shape(rational, logits, "blend")
    r = _softmax(logits.values, 1)
    diff = rational.values - intuitive.values

    def bk(g):
        gr = g * r
        return gr, g - gr, _softmax_vjp(g * diff, r, 1)

    return _record("blend", intuitive.values + r * diff, (rational, intuitive, logits), bk)


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


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    xv = x.values

    def bk(g):
        dx = np.zeros_like(xv)
        dx[:, start:stop] = g
        return (dx,)

    return _record("slice_cols", xv[:, start:stop].copy(), (x,), bk)


def cross_entropy(z: Tensor, ids: np.ndarray, weights: np.ndarray | float = 1.0) -> Tensor:
    """``[sum_i w_i * (logsumexp(z_i) - z[i, ids_i])]`` for logits ``z``, one column
    id per row, each row weighted by ``weights``, one per row or one for all (a
    zero weight drops the row and its gradient). No rounded probability is
    logged."""
    ids = np.asarray(ids, dtype=np.intp)
    zv = z.values
    n = zv.shape[0]
    w = np.asarray(weights, dtype=np.float64)
    if zv.ndim != 2 or ids.shape != (n,) or np.shape(w) not in ((), (n,)):
        raise ShapeError(f"cross_entropy needs one id and one weight per row, got ids "
                         f"{ids.shape} and weights {np.shape(w)} for {zv.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= zv.shape[1]):
        raise IndexError(f"column id out of range for {zv.shape[1]} columns")
    rows = np.arange(n)
    shifted = zv - zv.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)

    def bk(g):
        dz = e / total
        dz[rows, ids] -= 1.0
        return (dz * np.reshape(g * w, (-1, 1)),)

    per_row = np.log(total[:, 0]) - shifted[rows, ids]
    return _record("cross_entropy", np.array([(per_row * w).sum()]), (z,), bk)


def lstm_scan(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, steps: int,
              mask: np.ndarray | None = None, reverse: bool = False,
              proj: Tensor | None = None, force: np.ndarray | None = None,
              gold: np.ndarray | None = None) -> Tensor | tuple[Tensor, Tensor]:
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
    result is the pair ``(h [T*B, h], y [T*B, K])``, two outputs of one node.

    A step allocates nothing. The states live in ``[T+1, B, h]`` buffers whose
    start slot is zero, so ``h_{t-1}`` and ``h_t`` are neighbouring slots; the
    pre-activations are summed into ``acts[t]`` and turned into gate
    activations there, and the softmax runs in ``y[t]``. Steps where no row is
    masked skip the multiply by the mask, since ``x * 1.0 == x``.

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
    if reverse and K:
        raise ShapeError("lstm_scan: a decoder scan (with proj) runs forward only")
    keep = None if mask is None else mask.T[:, :, None].astype(np.float64)
    padded = np.zeros(T, bool) if mask is None else ~mask.all(axis=0)   # steps with a masked row
    gold_t = None if force is None else gold.reshape(T, B, K)
    w_in, w_y = wx[:, K:], wx[:, :K]
    proj_t = None if proj is None else proj.values.T
    forget, cell, out_gate = slice(hid, 2 * hid), slice(2 * hid, 3 * hid), slice(3 * hid, None)

    # the zero start state is slot 0, or slot T when reverse
    h_buf = np.empty((T + 1, B, hid))
    c_buf = np.empty((T + 1, B, hid))
    zero, new, old = ((T, slice(0, T), slice(1, T + 1)) if reverse
                      else (0, slice(1, T + 1), slice(0, T)))
    h_buf[zero] = 0.0
    c_buf[zero] = 0.0
    hs, h_prev, cs, c_prev = h_buf[new], h_buf[old], c_buf[new], c_buf[old]
    acts = xv @ w_in.T                     # pre-activations, then gate activations
    acts += bv
    acts = acts.reshape(T, B, 4 * hid)
    tanh_c = np.empty((T, B, hid))
    ys = np.empty((T, B, K))
    prevs = np.zeros((T, B, K))            # previous-label vectors read
    rec = np.empty((B, 4 * hid))           # scratch: one recurrent product
    tmp = np.empty((B, hid))               # scratch: tanh of the cell block, then i*g
    row_max = np.empty((B, 1))
    order = range(T - 1, -1, -1) if reverse else range(T)
    for t in order:
        a = acts[t]
        if K and t:
            prev = prevs[t]
            np.copyto(prev, ys[t - 1])
            if force is not None:
                np.copyto(prev, gold_t[t - 1], where=force[t][:, None])
            a += np.matmul(prev, w_y.T, out=rec)
        a += np.matmul(h_prev[t], wh.T, out=rec)
        np.tanh(a[:, cell], out=tmp)
        np.negative(a, out=a)              # sigmoid 1 / (1 + exp(-x)) over the row
        np.exp(a, out=a)
        a += 1.0
        np.divide(1.0, a, out=a)
        a[:, cell] = tmp
        c = np.multiply(a[:, forget], c_prev[t], out=cs[t])
        c += np.multiply(a[:, :hid], a[:, cell], out=tmp)
        np.tanh(c, out=tanh_c[t])
        h = np.multiply(a[:, out_gate], tanh_c[t], out=hs[t])
        if padded[t]:
            h *= keep[t]
            c *= keep[t]
        if K:
            y = np.matmul(h, proj_t, out=ys[t])
            y -= np.maximum.reduce(y, axis=1, keepdims=True, out=row_max)
            np.exp(y, out=y)
            y /= np.add.reduce(y, axis=1, keepdims=True, out=row_max)

    def bk(g):
        g_h, g_y = (g, None) if proj is None else g
        g_h = None if g_h is None else g_h.reshape(T, B, hid)
        g_y = np.zeros((T, B, K)) if g_y is None else g_y.reshape(T, B, K)
        d_act = acts * (1.0 - acts)
        d_act[..., cell] = 1.0 - acts[..., cell] ** 2
        d_tanh = 1.0 - tanh_c ** 2
        d_gates = np.empty((T, B, 4 * hid))
        d_z = np.empty((T, B, K))
        dh = np.zeros((B, hid))
        dc = np.zeros((B, hid))
        tmp = np.empty((B, hid))
        dy = None                          # gradient reaching y_t from step t + 1
        for t in reversed(order):
            if g_h is not None:
                dh += g_h[t]
            if K:
                y = ys[t]
                gy = g_y[t] if dy is None else g_y[t] + dy
                d_z[t] = _softmax_vjp(gy, y, 1)
                dh += d_z[t] @ proj.values
            if padded[t]:
                dh *= keep[t]
                dc *= keep[t]
            a = acts[t]
            np.multiply(dh, a[:, out_gate], out=tmp)
            tmp *= d_tanh[t]
            dc += tmp
            dg = d_gates[t]
            np.multiply(dc, a[:, cell], out=dg[:, :hid])
            np.multiply(dc, c_prev[t], out=dg[:, forget])
            np.multiply(dc, a[:, :hid], out=dg[:, cell])
            np.multiply(dh, tanh_c[t], out=dg[:, out_gate])
            dg *= d_act[t]
            dc *= a[:, forget]
            np.matmul(dg, wh, out=dh)
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

    h_out = hs.reshape(T * B, hid)
    if proj is None:
        return _record("lstm_scan", h_out, (x, w_x, w_h, b), bk)
    return _record("lstm_scan", (h_out, ys.reshape(T * B, K)), (x, w_x, w_h, b, proj), bk)


def gaussian_attention(x: Tensor, mask: np.ndarray, w_raw: Tensor,
                       b_raw: Tensor) -> tuple[Tensor, np.ndarray]:
    """Self-attention of each utterance over its own tokens, recorded as one
    operation. Returns the context ``[T*B, d]`` and, as a plain array, the
    weights ``[B, T, T]``.

    ``x`` is time-major (row ``t * B + b`` is utterance b's token t) and
    ``mask`` [B, T] marks real tokens. Query i scores key j as
    ``x_i . x_j - |w * (i - j)^2 + b|``, the locality prior of Guo et al.'s
    Gaussian Transformer, with ``w = exp(w_raw) > 0`` and
    ``b = -exp(b_raw) < 0`` from single-element tensors, so the prior stays
    well-formed for any raw values. Masked keys get weight 0, masked queries
    get a zero context row, and an utterance with no real token gets all-zero
    weights.

    Backward is hand-written for x, w_raw and b_raw; at the kink of ``|.|`` it
    takes ``sign(0) = 0``.
    """
    xv, wv, bv = x.values, w_raw.values, b_raw.values
    mask = np.asarray(mask, dtype=bool)
    if (mask.ndim != 2 or xv.ndim != 2 or xv.shape[0] != mask.size
            or wv.size != 1 or bv.size != 1):
        raise ShapeError(f"gaussian_attention: x {xv.shape} does not match mask {mask.shape}, "
                         f"or w_raw {wv.shape} / b_raw {bv.shape} is not a single element")
    B, T = mask.shape
    d = xv.shape[1]
    w = np.exp(wv)
    b = np.exp(bv) * -1.0
    xb = np.ascontiguousarray(xv.reshape(T, B, d).transpose(1, 0, 2))    # [B, T, d]
    pos = np.arange(T, dtype=np.float64)
    d2 = (pos[:, None] - pos[None, :]) ** 2
    u = d2 * w.reshape(()) + b.reshape(())
    scores = xb @ xb.transpose(0, 2, 1)
    scores -= np.abs(u)
    key = mask[:, None, :]
    empty = ~mask.any(axis=1)
    s = np.where(key, scores, -np.inf)
    top = s.max(axis=2, keepdims=True)
    top[empty] = 0.0
    e = np.exp(s - top)                    # exactly 0 at the masked keys, where s is -inf
    total = e.sum(axis=2, keepdims=True)
    total[empty] = 1.0
    weights = e / total
    query = mask[:, :, None]
    context = weights @ xb
    context *= query

    def bk(g):
        # a fresh array: at T == 1 or B == 1 the transpose is a view of g
        gc = np.multiply(g.reshape(T, B, d).transpose(1, 0, 2), query, order="C")
        d_weights = gc @ xb.transpose(0, 2, 1)
        ds = _softmax_vjp(d_weights, weights, 2)
        dx = None
        if x.requires_grad:
            dx = weights.transpose(0, 2, 1) @ gc
            dx += ds @ xb
            dx += ds.transpose(0, 2, 1) @ xb
            dx = dx.transpose(1, 0, 2).reshape(T * B, d)
        du = -ds.sum(axis=0) * np.sign(u)
        return (dx,
                (du * d2).sum() * w if w_raw.requires_grad else None,
                du.sum() * b if b_raw.requires_grad else None)

    out = _record("gaussian_attention", context.transpose(1, 0, 2).reshape(T * B, d),
                  (x, w_raw, b_raw), bk)
    return out, weights


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
    1e-8 so exact zeros compare cleanly. A NaN error (say, from a NaN
    gradient) is returned as NaN, never read as zero.
    """
    if not epsilon > 0:
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
            if np.isnan(err):
                return err
            worst = max(worst, err)
    return worst
