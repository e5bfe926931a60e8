"""Tape-based automatic differentiation for array energy functionals.

An energy is recorded once as a flat sequence of array primitives (the
tape); replays evaluate it on new inputs.  Gradients use reverse
accumulation over the tape.  Hessian-vector products push dual numbers
(value plus a stack of directional tangents) through both the forward and
the reverse sweep, which differentiates the gradient exactly in the given
directions; several directions are propagated at once through a leading
tangent axis, so numpy's trailing-axis broadcasting lines every tangent up
with its value.  That holds only if no input-dependent operand is
broadcast: recording an ``add``, ``sub``, ``mul`` or ``div`` whose
input-dependent operand has another shape than the result raises
``TypeError``.  Constants may broadcast.

The primitive set is exactly what the benchmark energies need: gather by
an index matrix, elementwise arithmetic, scalar powers, log, abs, row/full
sums, dot products, and products against constant matrices.  ``abs``
differentiates with sign(x), taking the value 0 at x = 0; ``x**0`` is
recorded as a constant of ones, so its derivatives are 0 at x = 0 too, and
the adjoint of ``x**1`` is passed back unchanged.  Non-finite values
propagate through replays without raising; the caller decides.

An operation whose operands are all constants is folded into a constant
when recorded, so every instruction depends on the input.  The
instructions that are affine in it (gathers, sums, negation, sums and
differences of affine slots, products with a constant, division by a
constant) form the tape's prefix; the slots where the prefix ends, read
by the rest, are its linear frontier (``Program.frontier``).
``Program.along(u, d)`` runs the prefix once on a dual of (u, d), which
gives every frontier slot as z0 + alpha * z1, and returns a small
program over [alpha] that replays only the rest: line-search samples
skip the linear part of the tape.

Element Hessians come from the same tape (``Program.element_hessians``),
by second-order adjoint preaccumulation at intermediate variables
(Griewank and Walther, Evaluating Derivatives, 2nd ed., SIAM 2008), at
one cut (``Program.element_cut``, computed once per program): the
frontier slots with one row per element.  That needs a tape that is a
sum of element densities, which one pass checks: every slot is either
per-element (built row by row from the gathers) or enters the energy
only linearly, and any other slot raises ``ValueError``.  The cut's
entries are seeded with one-hot tangents and the reverse sweep stops at
the frontier, giving the density's second derivatives W'' with respect
to them; each block is K^T W'' K, with K the cut's constant Jacobian
with respect to the element's local dofs.  The adjoint tangents are read
per element and never scattered into the field.

The replay kernels are written for speed but keep numpy's bits.  A row
sum over fewer than 8 columns adds the columns one by one, which is what
``ndarray.sum(axis=-1)`` does below its pairwise-summation threshold of 8
(numpy starts from +0.0, so only an all -0.0 row needs the trailing
``+ 0.0``); wider rows still go through ``np.sum``.  The adjoint of a
gather scatter-adds with ``np.bincount``, which, like ``np.add.at`` on a
zero vector, adds each entry onto 0.0 in index order; gathers are taken
from vectors only, and negative indices are wrapped when recorded.  The
reverse sweep computes no adjoint for an operand that does not depend on
the input.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "ElementCut",
    "Frontier",
    "Program",
    "Recorder",
    "Var",
    "log",
    "dot",
]

# local directions per element-Hessian product: the tape's working memory
# grows with the number of directions pushed at once
_ELEMENT_PROBE_BLOCK = 6


# ---------------------------------------------------------------------------
# dual numbers with a leading tangent axis


class _Dual:
    """Array value paired with tangents of shape ``(k,) + val.shape``."""

    __slots__ = ("val", "dot")

    def __init__(self, val, dot):
        self.val = val
        self.dot = dot


def _val(a):
    return a.val if isinstance(a, _Dual) else a


def _add(a, b):
    if isinstance(a, _Dual):
        if isinstance(b, _Dual):
            return _Dual(a.val + b.val, a.dot + b.dot)
        return _Dual(a.val + b, a.dot)
    if isinstance(b, _Dual):
        return _Dual(a + b.val, b.dot)
    return a + b


def _sub(a, b):
    if isinstance(a, _Dual):
        if isinstance(b, _Dual):
            return _Dual(a.val - b.val, a.dot - b.dot)
        return _Dual(a.val - b, a.dot)
    if isinstance(b, _Dual):
        return _Dual(a - b.val, -b.dot)
    return a - b


def _neg(a):
    if isinstance(a, _Dual):
        return _Dual(-a.val, -a.dot)
    return -a


def _mul(a, b):
    if isinstance(a, _Dual):
        if isinstance(b, _Dual):
            dot = a.dot * b.val
            dot += b.dot * a.val
            return _Dual(a.val * b.val, dot)
        return _Dual(a.val * b, a.dot * b)
    if isinstance(b, _Dual):
        return _Dual(a * b.val, b.dot * a)
    return a * b


def _div(a, b):
    if not isinstance(b, _Dual):
        if isinstance(a, _Dual):
            return _Dual(a.val / b, a.dot / b)
        return a / b
    if isinstance(a, _Dual):
        val = a.val / b.val
        return _Dual(val, (a.dot - b.dot * val) / b.val)
    val = a / b.val
    return _Dual(val, -(b.dot * val) / b.val)


def _pow(a, e):
    if not isinstance(a, _Dual):
        return a**e
    if e == 1.0:
        return _Dual(a.val**e, a.dot)
    return _Dual(a.val**e, a.dot * (e * a.val ** (e - 1.0)))


def _log(a):
    if not isinstance(a, _Dual):
        return np.log(a)
    return _Dual(np.log(a.val), a.dot / a.val)


def _abs(a):
    if not isinstance(a, _Dual):
        return np.abs(a)
    return _Dual(np.abs(a.val), a.dot * np.sign(a.val))


def _sum_all(a):
    if not isinstance(a, _Dual):
        return float(np.sum(a))
    return _Dual(float(np.sum(a.val)), a.dot.reshape(a.dot.shape[0], -1).sum(axis=1))


def _sum_rows(a):
    # sum over the last axis; numpy adds fewer than 8 elements one by one
    # onto +0.0, and the final += 0.0 turns an all -0.0 row into +0.0, as
    # that start does
    if isinstance(a, _Dual):
        return _Dual(_sum_rows(a.val), _sum_rows(a.dot))
    n = a.shape[-1]
    if not 2 <= n < 8:
        return a.sum(axis=-1)
    out = a[..., 0] + a[..., 1]
    for j in range(2, n):
        out += a[..., j]
    out += 0.0
    return out


def _take(a, idx):
    if not isinstance(a, _Dual):
        return a[idx]
    return _Dual(a.val[idx], a.dot[:, idx])


def _scatter_add(g, idx, n):
    # adjoint of a gather from a vector of length n: accumulate g back
    # through the non-negative idx, one tangent row at a time; bincount
    # adds onto 0.0 in index order
    if isinstance(g, _Dual):
        dot = np.stack([_scatter_add(row, idx, n) for row in g.dot])
        return _Dual(_scatter_add(g.val, idx, n), dot)
    return np.bincount(idx.ravel(), weights=g.ravel(), minlength=n)


def _bcast_rows(g, n_cols):
    # adjoint of a row sum: repeat g along a new last axis
    if isinstance(g, _Dual):
        return _Dual(_bcast_rows(g.val, n_cols), _bcast_rows(g.dot, n_cols))
    return np.broadcast_to(g[..., None], g.shape + (n_cols,))


def _bcast_full(g, shape):
    # adjoint of a full sum: spread the scalar g over shape
    if isinstance(g, _Dual):
        dot = g.dot.reshape(g.dot.shape + (1,) * len(shape))
        return _Dual(_bcast_full(g.val, shape), np.broadcast_to(dot, g.dot.shape + shape))
    return np.broadcast_to(np.asarray(g), shape)


def _vdot(a, b):
    # 1-D dot product, scalar result
    if not isinstance(a, _Dual) and not isinstance(b, _Dual):
        return float(a @ b)
    val = float(_val(a) @ _val(b))
    dot = 0.0
    if isinstance(a, _Dual):
        dot = dot + a.dot @ _val(b)
    if isinstance(b, _Dual):
        dot = dot + b.dot @ _val(a)
    return _Dual(val, dot)


def _matmul(a, m):
    # product of a (possibly dual) array with a constant matrix or vector
    if not isinstance(a, _Dual):
        return a @ m
    spec = "...b,bc->...c" if m.ndim == 2 else "...b,b->..."
    return _Dual(a.val @ m, np.einsum(spec, a.dot, m))


def _outer_vec(g, w):
    # adjoint of (E,3) @ w -> (E,): spread g over the columns of w
    if isinstance(g, _Dual):
        return _Dual(_outer_vec(g.val, w), _outer_vec(g.dot, w))
    return g[..., None] * w


# ---------------------------------------------------------------------------
# tape


@dataclass(frozen=True)
class Instr:
    op: str
    out: int
    args: tuple[int, ...]
    aux: Any = None


class Var:
    """Handle to a tape slot during recording."""

    __slots__ = ("rec", "slot", "shape")
    __array_ufunc__ = None  # keep numpy from absorbing us in mixed expressions

    def __init__(self, rec: "Recorder", slot: int, shape: tuple):
        self.rec = rec
        self.slot = slot
        self.shape = shape

    def __add__(self, other):
        return self.rec._binary("add", self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self.rec._binary("sub", self, other)

    def __rsub__(self, other):
        return self.rec._binary("sub", other, self)

    def __mul__(self, other):
        return self.rec._binary("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.rec._binary("div", self, other)

    def __rtruediv__(self, other):
        return self.rec._binary("div", other, self)

    def __neg__(self):
        return self.rec._unary("neg", self)

    def __abs__(self):
        return self.rec._unary("abs", self)

    def __pow__(self, exponent):
        if isinstance(exponent, Var) or not np.isscalar(exponent):
            raise TypeError("power exponent must be a plain real number")
        if exponent == 0:
            # x**0 = 1 everywhere, NaN included, with derivative 0
            return self.rec.constant(np.ones(self.shape))
        return self.rec._unary("pow", self, aux=float(exponent))

    def __matmul__(self, other):
        if isinstance(other, Var):
            raise TypeError("matrix products support only constant right operands")
        other = np.asarray(other, dtype=float)
        if len(self.shape) == 1 and other.ndim == 1:
            return self.rec._dot(self, other)
        return self.rec._matmul(self, other)

    def __rmatmul__(self, other):
        # plain_vector @ var is a 1-D dot product
        return self.rec._dot(other, self)

    def __getitem__(self, idx):
        return self.rec._gather(self, idx)

    def sum(self, axis: int | None = None) -> "Var":
        if axis is None:
            return self.rec._unary("sum", self)
        if axis == 1:
            if len(self.shape) != 2:
                raise ValueError(f"sum(axis=1) needs a 2-D operand, got shape {self.shape}")
            return self.rec._unary("sum_rows", self)
        raise ValueError("sum supports axis=None or axis=1")


class Recorder:
    """Records an array program over one input vector.

    The recording replays each primitive on an all-zeros input so that
    shapes are concrete; the recorded values are discarded.
    """

    def __init__(self, n_inputs: int):
        self.n_inputs = int(n_inputs)
        self._instrs: list[Instr] = []
        self._values: list[Any] = [np.zeros(self.n_inputs)]
        self._diff: set[int] = {0}
        self._consts: dict[int, np.ndarray | float] = {}
        self._const_cache: dict[int, int] = {}
        self._const_keepalive: list = []  # ids in the cache must stay live
        self.input_var = Var(self, 0, (self.n_inputs,))

    # -- slot management ----------------------------------------------------

    def constant(self, value) -> Var:
        """Register a constant array or scalar as a tape slot."""
        key = id(value)
        if key in self._const_cache:
            slot = self._const_cache[key]
            return Var(self, slot, np.shape(self._values[slot]))
        if isinstance(value, (int, float, np.floating, np.integer)):
            stored: np.ndarray | float = float(value)
        else:
            stored = np.asarray(value, dtype=float)
        slot = len(self._values)
        self._values.append(stored)
        self._consts[slot] = stored
        self._const_cache[key] = slot
        self._const_keepalive.append(value)
        return Var(self, slot, np.shape(stored))

    def _as_var(self, operand) -> Var:
        if isinstance(operand, Var):
            if operand.rec is not self:
                raise ValueError("operands recorded on different tapes")
            return operand
        return self.constant(operand)

    def _emit(self, op: str, args: tuple[Var, ...], aux=None) -> Var:
        slots = tuple(a.slot for a in args)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            value = _FORWARD[op]([self._values[s] for s in slots], aux)
        if not any(s in self._diff for s in slots):
            # nothing here depends on the input: fold it into a constant
            return self.constant(value)
        # numpy lines tangents up with values only if no operand that depends
        # on the input is broadcast; its adjoint is never summed back either
        shapes = [np.shape(self._values[s]) for s in slots]
        if op in ("add", "sub", "mul", "div") and any(
            s in self._diff and shape != np.shape(value) for s, shape in zip(slots, shapes)
        ):
            raise TypeError(
                f"{op!r} broadcasts an operand that depends on the input: "
                f"operand shapes {shapes}, result shape {np.shape(value)}"
            )
        out = len(self._values)
        self._values.append(value)
        self._instrs.append(Instr(op, out, slots, aux))
        self._diff.add(out)
        return Var(self, out, np.shape(value))

    # -- primitives ---------------------------------------------------------

    def _binary(self, op: str, a, b) -> Var:
        return self._emit(op, (self._as_var(a), self._as_var(b)))

    def _unary(self, op: str, a: Var, aux=None) -> Var:
        return self._emit(op, (a,), aux)

    def _gather(self, a: Var, idx) -> Var:
        idx = np.asarray(idx)
        if idx.dtype.kind not in "iu":
            raise TypeError("gather index must be an integer array")
        if len(a.shape) != 1:
            raise TypeError(f"gather needs a 1-D operand, got shape {a.shape}")
        if idx.dtype.kind == "i" and (idx < 0).any():
            # the reverse sweep's bincount takes only non-negative indices
            idx = np.where(idx < 0, idx + a.shape[0], idx)
        return self._emit("take", (a,), idx)

    def _matmul(self, a: Var, m: np.ndarray) -> Var:
        return self._emit("matmul", (a, self.constant(m)))

    def _dot(self, a, b) -> Var:
        return self._emit("dot", (self._as_var(a), self._as_var(b)))

    def log(self, a: Var) -> Var:
        return self._unary("log", a)

    def build(self, output: Var) -> "Program":
        """Freeze the tape with ``output`` as the scalar result."""
        if np.shape(self._values[output.slot]) != ():
            raise ValueError("program output must be a scalar")
        return Program(
            instrs=tuple(self._instrs),
            n_slots=len(self._values),
            n_inputs=self.n_inputs,
            input_slot=0,
            output_slot=output.slot,
            consts=dict(self._consts),
            diff=frozenset(self._diff),
        )


def log(a):
    """Natural log; records on the tape when given a Var."""
    if isinstance(a, Var):
        return a.rec.log(a)
    return np.log(a)


def dot(a, b):
    """1-D dot product; records on the tape when either side is a Var."""
    if isinstance(a, Var):
        return a.rec._dot(a, b)
    if isinstance(b, Var):
        return b.rec._dot(a, b)
    return float(np.dot(a, b))


# ---------------------------------------------------------------------------
# replay rules

_FORWARD: dict[str, Callable] = {
    "add": lambda v, aux: _add(v[0], v[1]),
    "sub": lambda v, aux: _sub(v[0], v[1]),
    "mul": lambda v, aux: _mul(v[0], v[1]),
    "div": lambda v, aux: _div(v[0], v[1]),
    "neg": lambda v, aux: _neg(v[0]),
    "abs": lambda v, aux: _abs(v[0]),
    "pow": lambda v, aux: _pow(v[0], aux),
    "log": lambda v, aux: _log(v[0]),
    "sum": lambda v, aux: _sum_all(v[0]),
    "sum_rows": lambda v, aux: _sum_rows(v[0]),
    "take": lambda v, aux: _take(v[0], aux),
    "dot": lambda v, aux: _vdot(v[0], v[1]),
    "matmul": lambda v, aux: _matmul(v[0], _val(v[1])),
}


def _vjp(instr: Instr, ws: list, g, diff: frozenset[int]) -> list[tuple[int, Any]]:
    """Adjoint contributions of one instruction to its operands in ``diff``.

    A constant operand gets no contribution, so none is computed for it.
    """
    op, args, aux = instr.op, instr.args, instr.aux
    a = ws[args[0]]

    def each(*rules):
        return [(slot, rule()) for slot, rule in zip(args, rules) if slot in diff]

    if op == "add":
        return each(lambda: g, lambda: g)
    if op == "sub":
        return each(lambda: g, lambda: _neg(g))
    if op == "dot":
        # spread the scalar adjoint over the vectors' entries
        g = _bcast_full(g, np.shape(_val(a)))
    if op == "mul" or op == "dot":
        return each(lambda: _mul(g, ws[args[1]]), lambda: _mul(g, a))
    if op == "div":
        da = _div(g, ws[args[1]])
        return each(lambda: da, lambda: _neg(_mul(da, ws[instr.out])))
    if op == "neg":
        return each(lambda: _neg(g))
    if op == "abs":
        return each(lambda: _mul(g, np.sign(_val(a))))
    if op == "pow":
        if aux == 1.0:
            return each(lambda: g)
        return each(lambda: _mul(g, _mul(_pow(a, aux - 1.0), aux)))
    if op == "log":
        return each(lambda: _div(g, a))
    if op == "sum":
        return each(lambda: _bcast_full(g, np.shape(_val(a))))
    if op == "sum_rows":
        return each(lambda: _bcast_rows(g, np.shape(_val(a))[1]))
    if op == "take":
        return each(lambda: _scatter_add(g, aux, np.shape(_val(a))[0]))
    if op == "matmul":
        m = _val(ws[args[1]])
        if m.ndim == 2:
            return each(lambda: _matmul(g, m.T))
        return each(lambda: _outer_vec(g, m))
    raise AssertionError(f"unknown op {op}")


# ---------------------------------------------------------------------------
# the linear frontier


def _is_affine(ins: Instr, affine: set[int], diff: frozenset[int]) -> bool:
    """Whether ``ins`` is affine in the input, given its affine operand slots."""
    op, args = ins.op, ins.args
    live = [s for s in args if s in diff]
    if op in ("take", "neg", "sum", "sum_rows"):
        return args[0] in affine
    if op in ("add", "sub"):
        return all(s in affine for s in live)
    if op in ("mul", "dot", "matmul"):
        return len(live) == 1 and live[0] in affine
    if op == "div":
        return args[0] in affine and args[1] not in diff
    return False


@dataclass(frozen=True, eq=False)
class Frontier:
    """Where a tape's part that is affine in the input ends.

    ``prefix`` holds the instructions whose outputs are affine in the
    input, ``suffix`` the others, each in tape order.  ``slots`` are the
    affine slots that the suffix reads (the output slot too, if affine):
    the suffix sees the input only through them.
    """

    slots: tuple[int, ...]
    prefix: tuple[Instr, ...]
    suffix: tuple[Instr, ...]


def _frontier(program: "Program") -> Frontier:
    affine = {program.input_slot}
    prefix, suffix = [], []
    for ins in program.instrs:
        if _is_affine(ins, affine, program.diff):
            affine.add(ins.out)
            prefix.append(ins)
        else:
            suffix.append(ins)
    read = {s for ins in suffix for s in ins.args if s in affine}
    if program.output_slot in affine:
        read.add(program.output_slot)
    return Frontier(tuple(sorted(read)), tuple(prefix), tuple(suffix))


@dataclass(frozen=True, eq=False)
class ElementCut:
    """Where element Hessians are cut: the per-element frontier slots.

    ``shapes[i]`` is the shape of one element's row of ``slots[i]`` (()
    for an (E,) slot, (q,) for an (E, q) one); ``jacobian`` (E, F, L)
    holds the derivatives of element e's F cut entries, in slot order,
    with respect to its L local dofs.  It is constant because the prefix
    is linear.
    """

    slots: tuple[int, ...]
    shapes: tuple[tuple[int, ...], ...]
    jacobian: np.ndarray


def _input_gathers(program: "Program") -> list[Instr]:
    """The gathers from the input; ``ValueError`` if anything else but a
    dot product with a constant reads it (that term is linear)."""
    gathers = []
    for ins in program.instrs:
        if program.input_slot not in ins.args:
            continue
        if ins.op == "take":
            gathers.append(ins)
        elif not (ins.op == "dot" and sum(s in program.diff for s in ins.args) == 1):
            raise ValueError(f"the input is read by {ins.op!r}, not only by gathers")
    return gathers


def _ndim(ins: Instr, ndim: dict[int, int]) -> int:
    # the number of axes of the slot ins writes, from its operands'
    if ins.op == "take":
        return np.ndim(ins.aux)
    if ins.op in ("sum", "dot"):
        return 0
    if ins.op == "sum_rows":
        return ndim[ins.args[0]] - 1
    if ins.op == "matmul":
        return ndim[ins.args[0]] + ndim[ins.args[1]] - 2
    return max(ndim[s] for s in ins.args)


def _element_slots(program: "Program", gathers: list[Instr]) -> tuple[int, ...]:
    """The per-element frontier slots, after one pass that checks that the
    tape is a sum of element densities (``ValueError`` naming the first
    slot that is not).

    Each slot must be per-element or linear.  A per-element slot is built
    row by row from the gathers: its op is not ``take``, ``sum`` or
    ``dot``, its live operands are per-element with one number of axes n,
    and no constant operand has more than n.  A linear slot enters the
    energy only linearly: it is affine (``_is_affine``) in per-element and
    linear slots, as the density sum and a load term are.  Only numbers of
    axes are read, so nothing is replayed.
    """
    diff = program.diff
    ndim = {slot: np.ndim(value) for slot, value in program.consts.items()}
    ndim[program.input_slot] = 1
    rows = {ins.out for ins in gathers}
    linear = {program.input_slot}
    for ins in program.instrs:
        ndim[ins.out] = _ndim(ins, ndim)
        if ins.out in rows:
            continue
        n = max(ndim[s] for s in ins.args if s in diff)
        if ins.op not in ("take", "sum", "dot") and all(
            s in rows and ndim[s] == n if s in diff else ndim[s] <= n for s in ins.args
        ):
            rows.add(ins.out)
        elif _is_affine(ins, rows | linear, diff):
            linear.add(ins.out)
        else:
            raise ValueError(
                f"slot {ins.out} ({ins.op!r}) is neither per-element nor linear: "
                "element Hessians need a sum of element densities"
            )
    return tuple(slot for slot in program.frontier.slots if slot in rows)


def _element_cut(program: "Program") -> ElementCut:
    """The cut for element Hessians: the per-element frontier slots.

    The input must be read only by gathers with one (E, npe) index matrix
    and by dot products with constants, and the tape must be a sum of
    element densities (``_element_slots``); ``ValueError`` otherwise.
    Frontier slots that are not per-element enter the energy linearly and
    add nothing to the Hessian.  The Jacobian comes from the local one-hot
    directions pushed through the prefix at u = 0, a few at a time.
    """
    gathers = _input_gathers(program)
    shapes = {ins.aux.shape for ins in gathers}
    if len(shapes) != 1 or len(next(iter(shapes))) != 2:
        raise ValueError("element Hessians need gathers from the input by one (E, npe) matrix")
    ((n_elems, npe),) = shapes
    slots = _element_slots(program, gathers)
    c = len(gathers)
    n_local = npe * c
    eye = np.eye(n_local)
    jacobian = None
    for start in range(0, n_local, _ELEMENT_PROBE_BLOCK):
        stop = min(start + _ELEMENT_PROBE_BLOCK, n_local)
        # local index a = c * i + k is column i of gather k (tape order)
        seeds = {
            ins.out: np.broadcast_to(eye[start:stop, None, k::c], (stop - start, n_elems, npe))
            for k, ins in enumerate(gathers)
        }
        ws = program._forward(np.zeros(program.n_inputs), seeds, program.frontier.prefix)
        if jacobian is None:
            row_shapes = tuple(ws[slot].val.shape[1:] for slot in slots)
            width = sum(int(np.prod(shape)) for shape in row_shapes)
            jacobian = np.empty((n_elems, width, n_local))
        row = 0
        for slot, shape in zip(slots, row_shapes):
            entries = int(np.prod(shape))
            tangent = ws[slot].dot.reshape(-1, n_elems, entries)
            jacobian[:, row : row + entries, start:stop] = tangent.transpose(1, 2, 0)
            row += entries
        del ws  # one block's working set at a time
    return ElementCut(slots, row_shapes, jacobian)


# ---------------------------------------------------------------------------
# program


@dataclass(frozen=True, eq=False)
class Program:
    """A recorded scalar-valued array program over one input vector."""

    instrs: tuple[Instr, ...]
    n_slots: int
    n_inputs: int
    input_slot: int
    output_slot: int
    consts: dict[int, np.ndarray | float]
    diff: frozenset[int]

    def signature(self) -> bytes:
        """Deterministic byte serialization of the tape and constants."""
        payload = (
            self.instrs,
            self.n_slots,
            self.n_inputs,
            self.input_slot,
            self.output_slot,
            sorted(self.consts.items(), key=lambda kv: kv[0]),
        )
        return pickle.dumps(payload)

    # -- replays ------------------------------------------------------------

    def _check_input(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_inputs,):
            raise ValueError(f"input must have shape ({self.n_inputs},), got {u.shape}")
        return u

    def _forward(self, u_value, seeds: dict | None = None, instrs=None) -> list:
        # seeds[slot] turns the value written to slot into a dual with that
        # tangent alone, dropping any it was computed with (a seeded slot is
        # its own variable); instrs replays a part of the tape (default: all)
        seeds = seeds or {}
        ws: list = [None] * self.n_slots
        for slot, value in self.consts.items():
            ws[slot] = value
        ws[self.input_slot] = u_value
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for ins in self.instrs if instrs is None else instrs:
                value = _FORWARD[ins.op]([ws[s] for s in ins.args], ins.aux)
                ws[ins.out] = value if ins.out not in seeds else _Dual(_val(value), seeds[ins.out])
        return ws

    def _reverse(self, ws, seed, stop: tuple[int, ...] | None = None) -> list:
        # adjoints of the stop slots (default: the input); an instruction
        # writing a stop slot keeps its adjoint instead of passing it back.
        # Each value in ws is dropped once its readers are swept (a lower
        # peak memory), so the caller reads what it needs from ws before
        stop = (self.input_slot,) if stop is None else stop
        adj: list = [None] * self.n_slots
        adj[self.output_slot] = seed
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for ins in reversed(self.instrs):
                if ins.out not in stop:
                    # each slot is written by one instruction: its adjoint is final here
                    g, adj[ins.out] = adj[ins.out], None
                    if g is not None:
                        for slot, contrib in _vjp(ins, ws, g, self.diff):
                            cur = adj[slot]
                            adj[slot] = contrib if cur is None else _add(cur, contrib)
                # every reader of this slot comes later in the tape and is swept
                ws[ins.out] = None
        return [adj[slot] for slot in stop]

    def evaluate(self, u) -> float:
        """Replay the program, returning the scalar value J(u)."""
        u = self._check_input(u)
        return float(_val(self._forward(u)[self.output_slot]))

    def value_and_gradient(self, u) -> tuple[float, np.ndarray]:
        """J(u) and its exact gradient in one forward/reverse sweep."""
        u = self._check_input(u)
        ws = self._forward(u)
        value = float(_val(ws[self.output_slot]))
        (grad,) = self._reverse(ws, 1.0)
        if grad is None:
            grad = np.zeros(self.n_inputs)
        return value, np.array(grad, dtype=float)

    def gradient(self, u) -> np.ndarray:
        """Exact gradient of J at u."""
        return self.value_and_gradient(u)[1]

    def hessian_vector_product(self, u, s) -> np.ndarray:
        """Exact H(u) @ s for one direction (n,) or stacked directions (n, k).

        The k directions travel as the leading tangent axis of one dual:
        s is transposed on the way in and the result on the way out.
        """
        u = self._check_input(u)
        s = np.asarray(s, dtype=float)
        single = s.ndim == 1
        if single:
            s = s[:, None]
        if s.shape[0] != self.n_inputs:
            raise ValueError(
                f"direction must have leading dimension {self.n_inputs}, got {s.shape}"
            )
        ws = self._forward(_Dual(u, np.ascontiguousarray(s.T)))
        (grad,) = self._reverse(ws, 1.0)
        if grad is None or not isinstance(grad, _Dual):
            out = np.zeros((self.n_inputs, s.shape[1]))
        else:
            out = grad.dot.T.copy()
        return out[:, 0] if single else out

    # -- the linear frontier ------------------------------------------------

    @functools.cached_property
    def frontier(self) -> Frontier:
        """The cut between the part of the tape that is affine in the input and the rest."""
        return _frontier(self)

    @functools.cached_property
    def element_cut(self) -> ElementCut:
        """The cut for element Hessians with its constant Jacobian, computed
        on first use (see ``element_hessians``)."""
        return _element_cut(self)

    def along(self, u, direction) -> "Program":
        """J(u + alpha * direction) as a program over the one input [alpha].

        The prefix runs once, on a dual of (u, direction), which gives
        every frontier slot as z0 + alpha * z1.  The returned program
        computes those sums from its input and replays only the suffix, so
        each ``evaluate([alpha])`` skips the linear part of the tape.  Its
        values match ``evaluate(u + alpha * direction)`` to rounding; it is
        meant for ``evaluate`` only.
        """
        # copies: the returned program may hold them as constants
        u = self._check_input(u).copy()
        direction = np.array(direction, dtype=float)
        if direction.shape != u.shape:
            raise ValueError(f"direction must have shape {u.shape}, got {direction.shape}")
        frontier = self.frontier
        ws = self._forward(_Dual(u, direction[None, :]), instrs=frontier.prefix)
        alpha_input, alpha = self.n_slots, self.n_slots + 1
        consts = dict(self.consts)
        instrs = [Instr("take", alpha, (alpha_input,), np.asarray(0))]
        diff = {alpha_input, alpha}
        slot = self.n_slots + 2
        for out in frontier.slots:
            z0, z1, scaled = slot, slot + 1, slot + 2
            consts[z0] = ws[out].val
            tangent = ws[out].dot[0]
            consts[z1] = tangent if tangent.ndim else float(tangent)
            instrs += [Instr("mul", scaled, (alpha, z1)), Instr("add", out, (z0, scaled))]
            diff |= {scaled, out}
            slot += 3
        diff |= {ins.out for ins in frontier.suffix}
        return Program(
            instrs=tuple(instrs) + frontier.suffix,
            n_slots=slot,
            n_inputs=1,
            input_slot=alpha_input,
            output_slot=self.output_slot,
            consts=consts,
            diff=frozenset(diff),
        )

    def element_hessians(self, u) -> np.ndarray:
        """Every element's (L, L) Hessian block at u, for a sum of element densities.

        Local index a = c * i + k is column i of the k-th gather from the
        input (tape order, c gathers in all), so for a field with c
        interleaved components gathered one per component it is node i,
        component k; L = c * npe.  The F per-element entries of
        ``element_cut`` are seeded with one-hot tangents and the reverse
        sweep stops at the frontier, giving W'' (E, F, F), the second
        derivatives with respect to those entries; the blocks are
        K^T W'' K with K the cut's Jacobian.  F = 0 (a linear tape) gives
        zero blocks.  Raises ``ValueError`` when anything other than a
        gather by one index matrix or a dot product with a constant reads
        the input, or when the tape is not a sum of element densities
        (see ``_element_slots``): a slot that mixes elements and is not
        used only linearly, such as ``z[perm]`` inside a power, is
        refused even where the energy still separates.
        """
        u = self._check_input(u)
        cut = self.element_cut
        k = cut.jacobian
        n_elems, width = k.shape[:2]
        # one-hot tangents: each slot's entries are its columns among the F
        eye = np.eye(width)
        seeds, columns, start = {}, [], 0
        for slot, shape in zip(cut.slots, cut.shapes):
            cols = slice(start, start + int(np.prod(shape)))
            seed = eye[:, cols].reshape((width, 1) + shape)
            seeds[slot] = np.broadcast_to(seed, (width, n_elems) + shape)
            columns.append(cols)
            start = cols.stop
        stop = self.frontier.slots
        adjoints = dict(zip(stop, self._reverse(self._forward(u, seeds), 1.0, stop)))
        w = np.zeros((n_elems, width, width))
        for slot, cols in zip(cut.slots, columns):
            if isinstance(adjoints[slot], _Dual):
                tangent = adjoints[slot].dot.reshape(width, n_elems, -1)
                w[:, cols] = tangent.transpose(1, 2, 0)
        return np.matmul(k.transpose(0, 2, 1), np.matmul(w, k))
