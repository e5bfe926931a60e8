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
sums, and products against constant matrices and vectors.  Shorthands are
recorded as the primitives they stand for: a dot product of two vectors
(``dot`` or ``@``) as their product and its sum, ``-x`` as ``x * -1.0``,
``x**1`` as ``x`` itself and ``x**0`` as a constant of ones, so the
derivatives of ``x**0`` are 0 at x = 0.  ``abs`` differentiates with
sign(x), taking the value 0 at x = 0.  Non-finite values propagate
through replays without raising; the caller decides.

Recording computes only an operation whose operands are all constants,
and folds it into a constant; every other slot's shape follows from its
operands' by one rule (``_shape``).  So every instruction depends on the
input, and a slot depends on it exactly when it is not a constant.  One
rule (``_degree``) gives the degree in the input of each slot while its
op keeps polynomials closed (sums, differences, products, gathers,
division by a constant, positive integer powers, contractions with a
constant); an affine slot is one of degree 1.  The instructions
up to a degree bound form a prefix, and the slots where it ends, read by
the rest, are a ``Frontier``.  Degree at most 1 gives the linear
frontier (``Program.frontier``), degree at most 4 the line programs.

``Program.along(u, d)`` gives J(u + alpha d) as a small program over
[alpha] for the line search.  It propagates univariate Taylor
polynomials in alpha (Griewank and Walther, ch. 13) once: the input is
the degree-1 stack (u, d), and every slot of the degree-4 prefix (4 is
the double well's degree) is a stack of coefficients on a leading axis.
The program Horner-evaluates the frontier slots of that prefix and
replays only the rest: on Ginzburg-Landau a sample is one scalar
quartic, on the bar the cubic det F and the quadratic I1 feed the
replayed ``abs``, ``log`` and the rest.  That ``LineProgram`` is for
``evaluate`` only; its derivatives raise.

Element Hessians come from the same tape (``Program.element_hessians``),
by second-order adjoint preaccumulation at intermediate variables
(Griewank and Walther, Evaluating Derivatives, 2nd ed., SIAM 2008), at
one cut (``Program.element_cut``, computed once per program): the
frontier slots with one row per element.  That needs a tape that is a
sum of element densities, which one pass checks: every slot is either
per-element (built row by row from the gathers) or enters the energy
only linearly, and any other slot raises ``ValueError``.  The cut's
entries are seeded by colors and the reverse sweep stops at the
frontier, giving the density's second derivatives W'' with respect to
them; each block is K^T W'' K, with K the cut's constant Jacobian with
respect to the element's local dofs.  The colors are a distance-2
coloring of the pattern of W'', which one symbolic pass over the
nonlinear rest of the tape finds: entries that no nonlinear op couples
share a tangent (one tangent for Ginzburg-Landau's five entries).  The
adjoint tangents are read per element and never scattered into the
field.  After that one sweep, ``Program.element_hessian_blocks`` fills
W'' and forms K^T W'' K for ``_ELEMENT_ROW_BLOCK`` elements at a time,
so the working set of a block stays a few hundred KB and no (E, F, F)
or (E, L, L) array is built; ``element_hessians`` stacks the blocks.

Every replay of the whole tape (``evaluate``, gradients, HVPs, element
Hessians) frees each slot after its last reader (the liveness rule for
tapes; Griewank and Walther, ch. 4).  It holds only what is read after
it: the input, the constants, the output, the slots
where the reverse sweep stops, and the values the reverse rules read,
which are both factors of ``mul``, the denominator and the quotient of
``div`` and the operand of ``pow``, ``log`` and ``abs``.  The rules of
``sum``, ``sum_rows`` and ``take`` take their operand's shape from
``Program.shapes``.  The plan is computed once per program and per set
of stop slots.

The replay kernels are written for speed but keep numpy's bits.  A row
sum over fewer than 8 columns adds the columns one by one, which is what
``ndarray.sum(axis=-1)`` does below its pairwise-summation threshold of 8
(numpy starts from +0.0, so only an all -0.0 row needs the trailing
``+ 0.0``); wider rows still go through ``np.sum``.  The adjoint of a
gather scatter-adds with ``np.bincount``, which, like ``np.add.at`` on a
zero vector, adds each entry onto 0.0 in index order; gathers are taken
from vectors only; an index out of range is refused when recorded and a
negative one wrapped.  No adjoint is computed for a constant operand.
"""

from __future__ import annotations

import functools
import itertools
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np
import scipy.sparse as sp

from .coloring import Coloring, color_pattern
from .fem import SparsityPattern

__all__ = [
    "ElementCut",
    "Frontier",
    "LineProgram",
    "Program",
    "Recorder",
    "Var",
    "log",
    "dot",
]

# local directions per element-Hessian product: the tape's working memory
# grows with the number of directions pushed at once
_ELEMENT_PROBE_BLOCK = 6

# elements per block of K^T W'' K: each block's arrays stay small enough
# that the allocator reuses them from one Hessian to the next
_ELEMENT_ROW_BLOCK = 256


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
    if e == 1.0:  # the adjoint of every square takes a**1
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


def _stack_matmul(a, m):
    # a @ m for a stack a (tangents or coefficients on a leading axis) and
    # a constant matrix or vector m: one BLAS call over all rows together
    c = a.reshape(-1, m.shape[0]) @ m
    return c.reshape(a.shape[:-1] + m.shape[1:])


def _matmul(a, m):
    # product of a (possibly dual) array with a constant matrix or vector
    if not isinstance(a, _Dual):
        return a @ m
    return _Dual(a.val @ m, _stack_matmul(a.dot, m))


def _outer_vec(g, w):
    # adjoint of (E,3) @ w -> (E,): spread g over the columns of w
    if isinstance(g, _Dual):
        return _Dual(_outer_vec(g.val, w), _outer_vec(g.dot, w))
    return g[..., None] * w


# ---------------------------------------------------------------------------
# polynomials in the step length, coefficients on a leading axis

# the largest degree in alpha that a line program keeps as coefficients:
# the Ginzburg-Landau double well's
_LINE_DEGREE = 4


class _Poly:
    """Polynomial in alpha: ``c[k]`` (shape of the slot) multiplies alpha**k.

    Every rule below writes a fresh stack and never changes an operand's.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c


def _cauchy(a, b):
    # coefficients of the product of two stacks: one pass per coefficient
    # of the shorter one
    if len(a) < len(b):
        a, b = b, a
    m, n = len(a) - 1, len(b) - 1
    out = np.empty((m + n + 1,) + a.shape[1:])
    np.multiply(a, b[0], out=out[: m + 1])
    out[m + 1 :] = 0.0
    term = np.empty_like(a)
    for j in range(1, n + 1):
        np.multiply(a, b[j], out=term)
        out[j : j + m + 1] += term
    return out


def _square(a):
    # symmetric terms: a_i**2 at 2i, and 2 a_i a_(i+k) at 2i + k, k >= 1;
    # the odd coefficients start from the k = 1 terms, one for each
    n = len(a) - 1
    out = np.empty((2 * n + 1,) + a.shape[1:])
    np.multiply(a, a, out=out[::2])
    odd = out[1::2]
    np.multiply(a[:-1], a[1:], out=odd)
    odd += odd
    for k in range(2, n + 1):
        term = a[: n - k + 1] * a[k:]
        term += term
        out[k : 2 * n - k + 1 : 2] += term
    return out


def _poly_sum(a, b, subtract):
    # a + b or a - b, at least one a polynomial; a constant is a stack of
    # one coefficient, and the longer stack's upper coefficients are copied
    fn = np.subtract if subtract else np.add
    ca = a.c if isinstance(a, _Poly) else np.asarray(a)[None]
    cb = b.c if isinstance(b, _Poly) else np.asarray(b)[None]
    m = min(len(ca), len(cb))
    shape = (a if isinstance(a, _Poly) else b).c.shape[1:]
    c = np.empty((max(len(ca), len(cb)),) + shape)
    fn(ca[:m], cb[:m], out=c[:m])
    if len(ca) > m:
        c[m:] = ca[m:]
    elif subtract:
        np.negative(cb[m:], out=c[m:])
    else:
        c[m:] = cb[m:]
    return _Poly(c)


def _poly_mul(a, b):
    if not isinstance(a, _Poly):
        a, b = b, a
    if not isinstance(b, _Poly):
        return _Poly(a.c * b)
    return _Poly(_square(a.c) if a is b else _cauchy(a.c, b.c))


def _poly_pow(a, e):
    # a positive integer power, by repeated squaring
    e = int(e)
    c, base = None, a.c
    while True:
        if e & 1:
            c = base if c is None else _cauchy(c, base)
        e >>= 1
        if not e:
            return _Poly(c)
        base = _square(base)


# each rule is called only where _degree gives a degree
_POLY: dict[str, Callable] = {
    "add": lambda v, aux: _poly_sum(v[0], v[1], False),
    "sub": lambda v, aux: _poly_sum(v[0], v[1], True),
    "mul": lambda v, aux: _poly_mul(v[0], v[1]),
    "div": lambda v, aux: _Poly(v[0].c / v[1]),
    "pow": lambda v, aux: _poly_pow(v[0], aux),
    "sum": lambda v, aux: _Poly(v[0].c.reshape(len(v[0].c), -1).sum(axis=1)),
    "sum_rows": lambda v, aux: _Poly(_sum_rows(v[0].c)),
    "take": lambda v, aux: _Poly(np.take(v[0].c, aux, axis=1)),
    "matmul": lambda v, aux: _Poly(_stack_matmul(v[0].c, v[1])),
}


# ---------------------------------------------------------------------------
# tape


@dataclass(frozen=True)
class Instr:
    op: str
    out: int
    args: tuple[int, ...]
    aux: Any = None


def _shape(ins: Instr, shapes) -> tuple[int, ...]:
    # the shape of the slot ins writes, from its operands', as numpy gives it
    if ins.op == "take":
        return np.shape(ins.aux)
    if ins.op == "sum":
        return ()
    if ins.op == "sum_rows":
        return shapes[ins.args[0]][:-1]
    if ins.op == "matmul":
        return shapes[ins.args[0]][:-1] + shapes[ins.args[1]][1:]
    return np.broadcast_shapes(*(shapes[s] for s in ins.args))


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
        return self.rec._binary("mul", self, -1.0)

    def __abs__(self):
        return self.rec._unary("abs", self)

    def __pow__(self, exponent):
        if isinstance(exponent, Var) or not np.isscalar(exponent):
            raise TypeError("power exponent must be a plain real number")
        if exponent == 0:
            # x**0 = 1 everywhere, NaN included, with derivative 0
            return self.rec.constant(np.ones(self.shape))
        if exponent == 1:
            return self
        return self.rec._unary("pow", self, aux=float(exponent))

    def __matmul__(self, other):
        if isinstance(other, Var):
            raise TypeError("matrix products support only constant right operands")
        other = np.asarray(other, dtype=float)
        if len(self.shape) == 1 and other.ndim == 1:
            return self.rec._dot(self, other)
        return self.rec._matmul(self, other)

    def __rmatmul__(self, other):
        # plain_vector @ var is a dot product
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

    Each slot's shape follows from its operands' by one rule (``_shape``);
    only an operation on constants alone is computed, and folded into one.
    """

    def __init__(self, n_inputs: int):
        self.n_inputs = int(n_inputs)
        self._instrs: list[Instr] = []
        self._shapes: list[tuple[int, ...]] = [(self.n_inputs,)]
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
            return Var(self, slot, self._shapes[slot])
        if isinstance(value, (int, float, np.floating, np.integer)):
            stored: np.ndarray | float = float(value)
        else:
            stored = np.asarray(value, dtype=float)
        slot = len(self._shapes)
        self._shapes.append(np.shape(stored))
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
        if all(s in self._consts for s in slots):
            # nothing here depends on the input: fold it into a constant
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return self.constant(_FORWARD[op]([self._consts[s] for s in slots], aux))
        ins = Instr(op, len(self._shapes), slots, aux)
        shape = _shape(ins, self._shapes)
        # numpy lines tangents up with values only if no operand that depends
        # on the input is broadcast; its adjoint is never summed back either
        shapes = [a.shape for a in args]
        if op in ("add", "sub", "mul", "div") and any(
            s not in self._consts and a != shape for s, a in zip(slots, shapes)
        ):
            raise TypeError(
                f"{op!r} broadcasts an operand that depends on the input: "
                f"operand shapes {shapes}, result shape {shape}"
            )
        self._shapes.append(shape)
        self._instrs.append(ins)
        return Var(self, ins.out, shape)

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
        n = a.shape[0]
        if idx.size and not -n <= idx.min() <= idx.max() < n:
            raise IndexError(f"gather index out of range for an operand of length {n}")
        if idx.dtype.kind == "i" and (idx < 0).any():
            # the reverse sweep's bincount takes only non-negative indices
            idx = np.where(idx < 0, idx + n, idx)
        return self._emit("take", (a,), idx)

    def _matmul(self, a: Var, m: np.ndarray) -> Var:
        if not a.shape or m.ndim not in (1, 2) or a.shape[-1] != m.shape[0]:
            raise ValueError(
                f"matrix product contracts mismatched lengths: shapes {a.shape} and {m.shape} "
                "(the constant must be 1-D or 2-D, with as many rows as the last axis)"
            )
        return self._emit("matmul", (a, self.constant(m)))

    def _dot(self, a, b) -> Var:
        sa, sb = np.shape(a), np.shape(b)
        if len(sa) != 1 or len(sb) != 1:
            raise TypeError(f"dot products need 1-D operands, got shapes {sa} and {sb}")
        if sa != sb:
            raise ValueError(f"dot product contracts mismatched lengths: shapes {sa} and {sb}")
        return self._binary("mul", a, b).sum()

    def log(self, a: Var) -> Var:
        return self._unary("log", a)

    def build(self, output: Var) -> "Program":
        """Freeze the tape with ``output`` as the scalar result."""
        if output.rec is not self:
            raise ValueError("program output recorded on another tape")
        if self._shapes[output.slot] != ():
            raise ValueError("program output must be a scalar")
        return Program(
            instrs=tuple(self._instrs),
            shapes=tuple(self._shapes),
            n_inputs=self.n_inputs,
            input_slot=0,
            output_slot=output.slot,
            consts=dict(self._consts),
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
    "abs": lambda v, aux: _abs(v[0]),
    "pow": lambda v, aux: _pow(v[0], aux),
    "log": lambda v, aux: _log(v[0]),
    "sum": lambda v, aux: _sum_all(v[0]),
    "sum_rows": lambda v, aux: _sum_rows(v[0]),
    "take": lambda v, aux: _take(v[0], aux),
    "matmul": lambda v, aux: _matmul(v[0], _val(v[1])),
}


def _reverse_reads(ins: Instr) -> tuple[int, ...]:
    # the slots whose values _vjp reads for ins, besides a matmul's constant
    if ins.op == "mul":
        return ins.args
    if ins.op == "div":
        return (ins.args[1], ins.out)
    if ins.op in ("pow", "log", "abs"):
        return ins.args
    return ()


def _vjp(instr: Instr, ws: list, g, consts: dict, shapes) -> list[tuple[int, Any]]:
    """Adjoint contributions of one instruction to its operands that are
    not in ``consts``.

    A constant operand gets no contribution, so none is computed for it.
    Only the values of ``_reverse_reads`` and of a matmul's constant are
    read from ``ws``; the rules of ``sum``, ``sum_rows`` and ``take`` take
    their operand's shape from ``shapes`` (``Program.shapes``).
    """
    op, args, aux = instr.op, instr.args, instr.aux
    a = ws[args[0]]

    def each(*rules):
        return [(slot, rule()) for slot, rule in zip(args, rules) if slot not in consts]

    if op == "add":
        return each(lambda: g, lambda: g)
    if op == "sub":
        return each(lambda: g, lambda: _neg(g))
    if op == "mul":
        return each(lambda: _mul(g, ws[args[1]]), lambda: _mul(g, a))
    if op == "div":
        da = _div(g, ws[args[1]])
        return each(lambda: da, lambda: _neg(_mul(da, ws[instr.out])))
    if op == "abs":
        return each(lambda: _mul(g, np.sign(_val(a))))
    if op == "pow":
        return each(lambda: _mul(g, _mul(_pow(a, aux - 1.0), aux)))
    if op == "log":
        return each(lambda: _div(g, a))
    if op == "sum":
        return each(lambda: _bcast_full(g, shapes[args[0]]))
    if op == "sum_rows":
        return each(lambda: _bcast_rows(g, shapes[args[0]][1]))
    if op == "take":
        return each(lambda: _scatter_add(g, aux, shapes[args[0]][0]))
    if op == "matmul":
        m = _val(ws[args[1]])
        if m.ndim == 2:
            return each(lambda: _matmul(g, m.T))
        return each(lambda: _outer_vec(g, m))
    raise AssertionError(f"unknown op {op}")


# ---------------------------------------------------------------------------
# polynomial prefixes: the linear frontier and the line split


def _degree(ins: Instr, degree: dict[int, int], consts: dict) -> int | None:
    """The degree in the input of the slot ``ins`` writes, from its
    operands' (``degree`` holds the polynomial slots; a constant has degree
    0), or None when ``ins`` does not keep polynomials closed."""
    op, args = ins.op, ins.args
    live = [s for s in args if s not in consts]
    if not all(s in degree for s in live):
        return None
    if op in ("add", "sub"):
        return max(degree[s] for s in live)
    # a contraction with a constant keeps the degree, as a product with one does
    if op == "mul" or (op == "matmul" and len(live) == 1):
        return sum(degree[s] for s in live)
    if op in ("take", "sum", "sum_rows") or (op == "div" and args[1] in consts):
        return degree[args[0]]
    if op == "pow" and ins.aux > 0 and float(ins.aux).is_integer():
        return degree[args[0]] * int(ins.aux)
    return None


@dataclass(frozen=True, eq=False)
class Frontier:
    """Where a tape's part of bounded degree in the input ends.

    ``prefix`` holds the instructions whose outputs are polynomials in the
    input of at most the bound's degree (``_degree``), ``suffix`` the
    others, each in tape order.  ``slots`` are the prefix's slots that the
    suffix reads (the output slot too, if in the prefix): the suffix sees
    the input only through them.  With the bound 1 the prefix is the part
    that is affine in the input, and ``slots`` are its linear frontier.
    """

    slots: tuple[int, ...]
    prefix: tuple[Instr, ...]
    suffix: tuple[Instr, ...]


def _split(program: "Program", max_degree: int) -> Frontier:
    degree = {program.input_slot: 1}
    prefix, suffix = [], []
    for ins in program.instrs:
        d = _degree(ins, degree, program.consts)
        if d is not None and d <= max_degree:
            degree[ins.out] = d
            prefix.append(ins)
        else:
            suffix.append(ins)
    read = {s for ins in suffix for s in ins.args if s in degree}
    if program.output_slot in degree:
        read.add(program.output_slot)
    return Frontier(tuple(sorted(read)), tuple(prefix), tuple(suffix))


@dataclass(frozen=True, eq=False)
class ElementCut:
    """Where element Hessians are cut: the per-element frontier slots.

    ``shapes[i]`` is the shape of one element's row of ``slots[i]`` (()
    for an (E,) slot, (q,) for an (E, q) one); ``jacobian`` (E, F, L)
    holds the derivatives of element e's F cut entries, in slot order,
    with respect to its L local dofs.  It is constant because the prefix
    is linear.  ``pattern`` (F, F) marks the entries of the density's
    second derivatives W'' that can be nonzero, the diagonal included
    (``_interaction_pattern``), and ``coloring`` is its distance-2
    coloring (``coloring.color_pattern``): entries of one color share no
    row of the pattern, so one tangent seeds them all.
    """

    slots: tuple[int, ...]
    shapes: tuple[tuple[int, ...], ...]
    jacobian: np.ndarray
    pattern: np.ndarray
    coloring: Coloring

    @functools.cached_property
    def fill(self) -> tuple[tuple[int, int, int, int], ...]:
        """How W'' is read from the colored tangents: each (i, j0, j1, c)
        sets W''[:, i, j0:j1] to entry i's tangents c to c + j1 - j0.

        These are the runs of the pattern's row i over which column and
        color both step by one; every other entry of W'' is 0.  A dense
        pattern colored in column order has one run per row.
        """
        colors, runs = self.coloring.color_of.tolist(), []
        for i, row in enumerate(self.pattern):
            cols = np.flatnonzero(row).tolist()
            start = 0
            for k in range(1, len(cols) + 1):
                if (
                    k == len(cols)
                    or cols[k] != cols[k - 1] + 1
                    or colors[cols[k]] != colors[cols[k - 1]] + 1
                ):
                    runs.append((i, cols[start], cols[k - 1] + 1, colors[cols[start]]))
                    start = k
        return tuple(runs)


def _element_slots(program: "Program") -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The gathers' slots (tape order) and the per-element frontier slots,
    after one pass that checks that the tape is a sum of element densities
    (``ValueError`` naming the first slot that is not).

    Each slot must be per-element or linear.  A per-element slot is a
    gather from the input or is built row by row from them: its op is not
    ``take`` or ``sum``, its live operands are per-element with
    one number of axes n, and no constant operand has more than n.  A
    linear slot enters the energy only linearly: it has degree 1
    (``_degree``) in per-element and linear slots, as the density sum and
    a load term have.  Only numbers of axes are read (``Program.shapes``),
    so nothing is replayed.
    """
    consts = program.consts
    ndim = [len(shape) for shape in program.shapes]
    # the per-element and linear slots, each of degree 1 to the linear test
    gathers, rows, degree = [], set(), {program.input_slot: 1}
    for ins in program.instrs:
        n = max(ndim[s] for s in ins.args if s not in consts)
        if ins.op == "take" and ins.args[0] == program.input_slot:
            gathers.append(ins.out)
            rows.add(ins.out)
        elif ins.op not in ("take", "sum") and all(
            s in rows and ndim[s] == n if s not in consts else ndim[s] <= n for s in ins.args
        ):
            rows.add(ins.out)
        elif _degree(ins, degree, consts) != 1:
            raise ValueError(
                f"slot {ins.out} ({ins.op!r}) is neither per-element nor linear: "
                "element Hessians need a sum of element densities"
            )
        degree[ins.out] = 1
    return tuple(gathers), tuple(slot for slot in program.frontier.slots if slot in rows)


def _couple(pattern: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    # entry by entry of two slots' dependency arrays (which broadcast), mark
    # every cut entry behind a as coupled with every one behind b
    a, b = np.broadcast_arrays(a, b)
    pairs = (a.reshape(-1, a.shape[-1])[:, :, None] & b.reshape(-1, b.shape[-1])[:, None, :]).any(0)
    pattern |= pairs | pairs.T


def _interaction_pattern(program: "Program", slots, shapes) -> np.ndarray:
    """Which second derivatives of the density can be nonzero: an (F, F)
    boolean pattern over the cut's entries, with its diagonal.

    One symbolic pass over the suffix gives each slot, entry by entry of
    one element's row, the set of cut entries it depends on (a boolean
    array of shape row shape + (F,), or (F,) where every entry has the
    same set).  Elementwise ops union their operands' sets entry by
    entry; the ops that mix entries (``sum_rows``, ``sum``, ``take``,
    ``matmul``) give the union of all.  The nonlinear ops record
    couplings, as nonlinear interaction domains do (Walther, ACM TOMS
    34(1), 2008): a product of two live operands couples them, a live
    denominator couples itself and the numerator, and a power (``x**0``
    and ``x**1`` are not recorded as one) and a log couple their operand
    with itself.  ``abs`` is piecewise linear and couples nothing.  The
    pattern so holds every entry of W'' that is nonzero at some input.
    """
    width = sum(int(np.prod(shape)) for shape in shapes)
    eye = np.eye(width, dtype=bool)
    deps, start = {}, 0
    for slot, shape in zip(slots, shapes):
        entries = int(np.prod(shape))
        deps[slot] = eye[start : start + entries].reshape(shape + (width,))
        start += entries
    none = np.zeros(width, dtype=bool)
    pattern = eye.copy()
    for ins in program.frontier.suffix:
        op, args = ins.op, ins.args
        live = [deps.get(s, none) for s in args if s not in program.consts]
        if op == "mul" and len(live) == 2:
            _couple(pattern, live[0], live[1])
        elif op == "div" and args[1] not in program.consts:
            for other in live:  # the denominator itself and a live numerator
                _couple(pattern, live[-1], other)
        elif op in ("pow", "log"):
            _couple(pattern, live[0], live[0])
        if op in ("sum_rows", "sum", "take", "matmul"):
            live = [d.reshape(-1, width).any(0) for d in live]
        deps[ins.out] = functools.reduce(np.logical_or, live)
    return pattern


def _element_cut(program: "Program") -> ElementCut:
    """The cut for element Hessians: the per-element frontier slots.

    The local dofs are those of ``Program.element_dofs``, and the tape
    must be a sum of element densities (``_element_slots``); ``ValueError``
    otherwise.  Frontier slots that are not per-element enter the energy
    linearly and add nothing to the Hessian.  The Jacobian comes from the
    local one-hot directions pushed through the prefix at u = 0, a few at
    a time; the pattern of W'' from one symbolic pass over the suffix
    (``_interaction_pattern``), and its colors from the greedy distance-2
    rule of the global Hessians (Gebremedhin, Tarafdar, Pothen and
    Walther, INFORMS J. Computing 21(2), 2009).
    """
    n_elems, n_local = program.element_dofs.shape
    gathers, slots = _element_slots(program)
    row_shapes = tuple(program.shapes[slot][1:] for slot in slots)
    width = sum(int(np.prod(shape)) for shape in row_shapes)
    jacobian = np.empty((n_elems, width, n_local))
    c = len(gathers)
    eye = np.eye(n_local)
    for start in range(0, n_local, _ELEMENT_PROBE_BLOCK):
        stop = min(start + _ELEMENT_PROBE_BLOCK, n_local)
        # one-hot local directions, in the order of element_dofs
        seeds = {
            g: np.broadcast_to(eye[start:stop, None, k::c], (stop - start, n_elems, n_local // c))
            for k, g in enumerate(gathers)
        }
        ws = program._forward(np.zeros(program.n_inputs), seeds, program.frontier.prefix)
        row = 0
        for slot, shape in zip(slots, row_shapes):
            entries = int(np.prod(shape))
            tangent = ws[slot].dot.reshape(-1, n_elems, entries)
            jacobian[:, row : row + entries, start:stop] = tangent.transpose(1, 2, 0)
            row += entries
        del ws  # one block's working set at a time
    pattern = _interaction_pattern(program, slots, row_shapes)
    coloring = color_pattern(SparsityPattern.from_csr(sp.csr_matrix(pattern)))
    return ElementCut(slots, row_shapes, jacobian, pattern, coloring)


# ---------------------------------------------------------------------------
# program


@dataclass(frozen=True, eq=False)
class Program:
    """A recorded scalar-valued array program over one input vector; ``shapes[s]`` is slot s's."""

    instrs: tuple[Instr, ...]
    shapes: tuple[tuple[int, ...], ...]
    n_inputs: int
    input_slot: int
    output_slot: int
    consts: dict[int, np.ndarray | float]

    n_slots = property(lambda self: len(self.shapes))

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

    @functools.cached_property
    def _plans(self) -> dict:
        # _dead_after's plans, one per stop tuple
        return {}

    def _dead_after(self, stop: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        # for each instruction, the slots it is the last reader (or, unread,
        # the writer) of and that nothing after the forward sweep reads: the
        # input, the constants, the output, the stop slots and every value
        # a reverse rule reads (_reverse_reads) are held
        plan = self._plans.get(stop)
        if plan is None:
            held = {self.input_slot, self.output_slot, *stop, *self.consts}
            held.update(s for ins in self.instrs for s in _reverse_reads(ins))
            last = {}
            for i, ins in enumerate(self.instrs):
                last[ins.out] = i
                last.update((s, i) for s in ins.args)
            dead: list[list[int]] = [[] for _ in self.instrs]
            for slot, i in last.items():
                if slot not in held:
                    dead[i].append(slot)
            plan = self._plans[stop] = tuple(map(tuple, dead))
        return plan

    def _forward(self, u_value, seeds: dict | None = None, instrs=None, stop=None) -> list:
        # seeds[slot] turns the value written to slot into a dual with that
        # tangent alone, dropping any it was computed with (a seeded slot is
        # its own variable); instrs replays a part of the tape (default: all)
        # and holds every slot.  Given the stop slots of the reverse sweep to
        # follow (() if none follows), a replay of the whole tape drops each
        # value after its last reader unless that sweep or the caller reads
        # it (_dead_after): a lower peak memory
        seeds = seeds or {}
        ws: list = [None] * self.n_slots
        for slot, value in self.consts.items():
            ws[slot] = value
        ws[self.input_slot] = u_value
        if instrs is None:
            instrs = self.instrs
        dead = itertools.repeat(()) if stop is None else self._dead_after(stop)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for ins, free in zip(instrs, dead):
                value = _FORWARD[ins.op]([ws[s] for s in ins.args], ins.aux)
                ws[ins.out] = value if ins.out not in seeds else _Dual(_val(value), seeds[ins.out])
                for s in free:
                    ws[s] = None
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
                        for slot, contrib in _vjp(ins, ws, g, self.consts, self.shapes):
                            cur = adj[slot]
                            adj[slot] = contrib if cur is None else _add(cur, contrib)
                # every reader of this slot comes later in the tape and is swept
                ws[ins.out] = None
        return [adj[slot] for slot in stop]

    def evaluate(self, u) -> float:
        """Replay the program, returning the scalar value J(u)."""
        u = self._check_input(u)
        return float(_val(self._forward(u, stop=())[self.output_slot]))

    def value_and_gradient(self, u) -> tuple[float, np.ndarray]:
        """J(u) and its exact gradient in one forward/reverse sweep."""
        u = self._check_input(u)
        ws = self._forward(u, stop=(self.input_slot,))
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
        ws = self._forward(_Dual(u, np.ascontiguousarray(s.T)), stop=(self.input_slot,))
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
        return _split(self, 1)

    @functools.cached_property
    def element_dofs(self) -> np.ndarray:
        """The input index behind every element-local index, shape (E, L).

        Read from the tape's own gathers: element e's local index
        a = c * i + k is column i of the k-th of the c gathers from the
        input (tape order), so L = c * npe; for c interleaved components
        gathered one per component, a is node i, component k.
        ``element_hessians`` and ``fem.element_slots`` follow this table.
        Besides the gathers, the input may be read only by products with a
        constant (a load term ``dot(f, v)`` is recorded as ``f * v`` and
        its sum); ``ValueError`` when anything else reads it, or when the
        gathers are not all by one (E, npe) matrix.
        """
        gathers = []
        for ins in self.instrs:
            if self.input_slot not in ins.args:
                continue
            if ins.op == "take":
                gathers.append(ins.aux)
            elif not (ins.op == "mul" and sum(s not in self.consts for s in ins.args) == 1):
                raise ValueError(f"the input is read by {ins.op!r}, not only by gathers")
        if len({idx.shape for idx in gathers}) != 1 or gathers[0].ndim != 2:
            raise ValueError("element Hessians need gathers from the input by one (E, npe) matrix")
        # a view for one gather (a scalar field): the cache then holds no memory
        dofs = gathers[0] if len(gathers) == 1 else np.stack(gathers, axis=2)
        return dofs.reshape(len(dofs), -1)

    @functools.cached_property
    def element_cut(self) -> ElementCut:
        """The cut for element Hessians with its constant Jacobian, computed
        on first use (see ``element_hessians``)."""
        return _element_cut(self)

    @functools.cached_property
    def _line_frontier(self) -> Frontier:
        # the polynomial prefix that along computes once as coefficient stacks
        return _split(self, _LINE_DEGREE)

    def along(self, u, direction) -> "LineProgram":
        """J(u + alpha * direction) as a program over the one input [alpha].

        One pass over the tape on coefficient stacks (Taylor polynomials
        in alpha; Griewank and Walther, ch. 13) starts from the input's
        (u, direction), which the affine prefix turns into every frontier
        slot's coefficients (z0, z1) of z0 + alpha * z1.  The pass covers
        the prefix of degree at most ``_LINE_DEGREE`` = 4 (``_split``, by
        the rule of the linear frontier: a slot stays a polynomial while
        its op keeps polynomials closed), and each stack is dropped after
        its last reader.  The returned program Horner-evaluates that
        prefix's frontier slots (the polynomial slots that the other
        instructions or the output read) and replays only the other
        instructions: on Ginzburg-Landau the whole energy is one scalar
        quartic.  Its values match ``evaluate(u + alpha *
        direction)`` to rounding; its derivatives raise (see
        ``LineProgram``).
        """
        u = self._check_input(u)
        direction = np.asarray(direction, dtype=float)
        if direction.shape != u.shape:
            raise ValueError(f"direction must have shape {u.shape}, got {direction.shape}")
        split = self._line_frontier
        ws: list = [None] * self.n_slots
        for slot, value in self.consts.items():
            ws[slot] = value
        ws[self.input_slot] = _Poly(np.stack((u, direction)))
        last = {s: ins.out for ins in split.prefix for s in ins.args}
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for ins in split.prefix:
                ws[ins.out] = _POLY[ins.op]([ws[s] for s in ins.args], ins.aux)
                for s in ins.args:
                    if last[s] == ins.out and s not in split.slots:
                        ws[s] = None  # a lower peak memory
        alpha_input, alpha = self.n_slots, self.n_slots + 1
        instrs = [Instr("take", alpha, (alpha_input,), np.asarray(0))]
        shapes = [*self.shapes, (1,), ()]
        consts = {s: self.consts[s] for ins in split.suffix for s in ins.args if s in self.consts}
        slot = self.n_slots + 2
        for out in split.slots:
            # ((c_n alpha + c_(n-1)) alpha + ...) alpha + c_0, the last add writing out
            coeffs = [c if c.ndim else float(c) for c in ws[out].c]
            acc = slot
            consts[acc] = coeffs[-1]
            slot += 1
            for k in range(len(coeffs) - 2, -1, -1):
                scaled, coef, total = slot, slot + 1, out if k == 0 else slot + 2
                consts[coef] = coeffs[k]
                instrs += [Instr("mul", scaled, (alpha, acc)), Instr("add", total, (coef, scaled))]
                acc = total
                slot += 3
            shapes += [self.shapes[out]] * (slot - len(shapes))  # each step's shape is out's
        instrs += split.suffix
        return LineProgram(
            instrs=tuple(instrs),
            shapes=tuple(shapes),
            n_inputs=1,
            input_slot=alpha_input,
            output_slot=self.output_slot,
            consts=consts,
        )

    def element_hessians(self, u) -> np.ndarray:
        """Every element's (L, L) Hessian block at u, shape (E, L, L): the
        blocks of ``element_hessian_blocks`` stacked in element order."""
        blocks = self.element_hessian_blocks(u)
        n_elems, _, n_local = self.element_cut.jacobian.shape
        out = np.empty((n_elems, n_local, n_local))
        for start, block in blocks:
            out[start : start + len(block)] = block
        return out

    def element_hessian_blocks(self, u) -> Iterator[tuple[int, np.ndarray]]:
        """The element Hessian blocks at u in row blocks, for a sum of element densities.

        One forward-over-reverse sweep runs when this is called.  The
        local indices are those of ``element_dofs``.  Each color of
        ``element_cut`` seeds one tangent, which is 1 at that color's
        per-element entries, and the reverse sweep stops at the frontier.
        Entry i's adjoint tangent for the color of entry j is then W''[i,
        j], the density's second derivative with respect to the two, at
        every (i, j) of the cut's pattern, because no other entry of that
        color couples with i; W'' is 0 elsewhere.  On Ginzburg-Landau W''
        is diagonal and one tangent replaces five; a dense pattern has F
        colors, which seed the one-hot tangents.

        The returned iterator, single-pass, then yields ``(start,
        block)`` in element order: block (b, L, L), b at most
        ``_ELEMENT_ROW_BLOCK``, is K^T W'' K for the elements start to
        start + b, with K the cut's Jacobian and W'' filled into one
        buffer that every block reuses, so no (E, F, F) or (E, L, L)
        array is built.  Each block holds the bits that one product over
        all elements gives, whatever the block size.  F = 0 (a linear
        tape) gives zero blocks.  Raises ``ValueError`` where
        ``element_dofs`` does, or when the tape is not a sum of element
        densities (see ``_element_slots``): a slot that mixes elements and
        is not used only linearly, such as ``z[perm]`` inside a power, is
        refused even where the energy still separates.
        """
        u = self._check_input(u)
        cut = self.element_cut
        n_elems, width = cut.jacobian.shape[:2]
        n_colors = cut.coloring.n_colors
        # tangent c is 1 at the entries of color c; each slot's entries are
        # its columns among the F
        basis = np.zeros((n_colors, width))
        basis[cut.coloring.color_of, np.arange(width)] = 1.0
        seeds, start = {}, 0
        for slot, shape in zip(cut.slots, cut.shapes):
            end = start + int(np.prod(shape))
            seed = basis[:, start:end].reshape((n_colors, 1) + shape)
            seeds[slot] = np.broadcast_to(seed, (n_colors, n_elems) + shape)
            start = end
        stop = self.frontier.slots
        adjoints = dict(zip(stop, self._reverse(self._forward(u, seeds, stop=stop), 1.0, stop)))
        # each entry's adjoint tangents (n_colors, E), or None where it has none
        tangents = []
        for slot, shape in zip(cut.slots, cut.shapes):
            adjoint = adjoints[slot]
            entries = int(np.prod(shape))
            if isinstance(adjoint, _Dual):
                t = adjoint.dot.reshape(n_colors, n_elems, entries)
                tangents += [t[:, :, i] for i in range(entries)]
            else:
                tangents += [None] * entries
        return _row_blocks(cut, tangents)


def _row_blocks(cut: ElementCut, tangents: list) -> Iterator[tuple[int, np.ndarray]]:
    # K^T W'' K in blocks of _ELEMENT_ROW_BLOCK elements, W'' read from the
    # entries' adjoint tangents by cut.fill into one buffer; the entries
    # outside the fill are written by no block and stay 0
    k = cut.jacobian
    n_elems, width = k.shape[:2]
    w = np.zeros((min(_ELEMENT_ROW_BLOCK, n_elems), width, width))
    for start in range(0, n_elems, _ELEMENT_ROW_BLOCK):
        stop = min(start + _ELEMENT_ROW_BLOCK, n_elems)
        wb, kb = w[: stop - start], k[start:stop]
        for i, j0, j1, c in cut.fill:
            if tangents[i] is not None:
                wb[:, i, j0:j1] = tangents[i][c : c + j1 - j0, start:stop].T
        yield start, np.matmul(kb.transpose(0, 2, 1), np.matmul(wb, kb))


class LineProgram(Program):
    """The energy on a line, from ``Program.along``: it supports ``evaluate`` only.

    Its instructions are a Horner evaluation, one ``mul`` by alpha and one
    ``add`` of a coefficient per degree, of each polynomial slot that the
    replayed rest of the tape reads (or of the output), then that rest.
    The ``mul`` broadcasts the scalar alpha into per-element coefficients,
    which the recorder refuses because the reverse sweep cannot sum its
    adjoint back; so every derivative raises ``TypeError`` by name instead
    of failing inside a kernel.
    """

    def _evaluate_only(self, *args):
        raise TypeError("a line program supports evaluate only, not derivatives")

    value_and_gradient = gradient = hessian_vector_product = _evaluate_only
