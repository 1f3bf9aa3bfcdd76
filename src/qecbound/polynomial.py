"""Error minterms, bound accumulators, and box optimization.

A minterm for bitstring e is prod_{e_i=1} x_i * prod_{e_i=0} (1-x_i); an
error polynomial is a sum of minterms.  This module evaluates minterms at
a point, accumulates running lower/upper bounds on the logical error rate
with compensated summation, and optimizes polynomials exactly over
hyperrectangles by partial-derivative pruning with matching-term
simplification, followed by exhaustive vertex search over the surviving
free variables.

Term representation.  The optimizer holds a sum of signed terms as
parallel arrays (`TermArray`): a float64 coefficient per term and two bit
sets per term, the variables that appear as x_i (`pos`) and those that
appear as 1-x_i (`neg`), each stored as ceil(n/64) uint64 words, so one
code path serves every channel count.  A partial derivative selects the
rows that hold the variable, signs their coefficients, clears the bit and
merges rows with equal (pos, neg) by sorting and summing; for minterms the
matching pairs have equal magnitudes, so the cancellation is exact.
Substitution scales the rows that hold the variable, clears its bit and
merges the same way.  `SignedTerm` lists remain the public exchange
format and are converted to arrays at the public functions; the driver
hands its minterm stores (`MintermStore`) over directly.

Summation.  Per-term products multiply their factors in variable order.
Termwise bounds and point evaluations sum the terms with `math.fsum`
(correctly rounded); vertex search sums terms in row order.

Truncation.  When more than f_max free variables survive pruning, vertex
search is skipped and the result is flagged inexact: `maximize` and
`minimize` return the value at a feasible vertex (free variables at their
upper, resp. lower, ends).  That value cannot exceed the maximum, so it
stays a sound lower side, but it can exceed the minimum.
`robustness_bounds` therefore takes the termwise lower bound of the
terms that survive pruning as the minimum, so `1 - min p_{S\\L}` stays a
sound upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Absolute floating-point soundness margin applied to reported bounds.
FP_MARGIN = 1e-12

# Default cap on the exhaustive phase: up to 2^F_MAX vertex evaluations.
F_MAX_DEFAULT = 24

# Vertex search takes at most _VERTEX_CHUNK vertices at a time, and as many
# rows as keep a block within _VERTEX_BLOCK (row, vertex) values.
_VERTEX_CHUNK = 1 << 16
_VERTEX_BLOCK = 1 << 18

_WORD_MASK = (1 << 64) - 1


class _KahanSum:
    """Compensated accumulator."""

    __slots__ = ("total", "_c")

    def __init__(self) -> None:
        self.total = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


@dataclass(frozen=True)
class Hyperrectangle:
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ValueError("bound vectors differ in length")
        for lo, hi in zip(self.lower, self.upper):
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(f"invalid interval [{lo}, {hi}]")

    @property
    def n(self) -> int:
        return len(self.lower)

    @staticmethod
    def point(v) -> "Hyperrectangle":
        v = tuple(float(x) for x in v)
        return Hyperrectangle(v, v)

    @staticmethod
    def scaled(v, lo_scale: float, hi_scale: float) -> "Hyperrectangle":
        """Multiplicative box around a nominal point, clipped to [0, 1]."""
        lo = tuple(max(0.0, x * lo_scale) for x in v)
        hi = tuple(min(1.0, x * hi_scale) for x in v)
        return Hyperrectangle(lo, hi)


class MintermEvaluator:
    """Evaluates minterms at a fixed point v in (0,1)^n.

    Uses the factored form base * prod_{e_i=1} v_i/(1-v_i) with the
    all-zeros base precomputed once, so a single evaluation costs
    O(weight(e)).
    """

    def __init__(self, v) -> None:
        self.v = tuple(float(x) for x in v)
        for x in self.v:
            if not 0.0 < x < 1.0:
                raise ValueError(f"error rate {x} outside (0, 1)")
        b = 1.0
        for x in self.v:
            b *= 1.0 - x
        self.base = b
        self.ratio = tuple(x / (1.0 - x) for x in self.v)

    def __call__(self, mask: int) -> float:
        r = self.base
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            r *= self.ratio[i]
            m &= m - 1
        return r


def minterm_eval(mask: int, v) -> float:
    """Probability of the bitstring `mask` under channel rates `v`."""
    return MintermEvaluator(v)(mask)


@dataclass
class BoundAccumulators:
    """Running sums over enumerated bitstrings (Kahan-compensated)."""

    sum_l: _KahanSum = field(default_factory=_KahanSum)
    sum_s: _KahanSum = field(default_factory=_KahanSum)
    count_l: int = 0
    count_s: int = 0

    def accumulate(self, mask: int, is_logical_error: bool, evaluator: MintermEvaluator) -> None:
        p = evaluator(mask)
        self.sum_s.add(p)
        self.count_s += 1
        if is_logical_error:
            self.sum_l.add(p)
            self.count_l += 1


def accuracy_bounds(acc: BoundAccumulators) -> tuple[float, float]:
    """Sound sandwich: sum_L <= true rate <= 1 - (sum_S - sum_L)."""
    return acc.sum_l.total, 1.0 - (acc.sum_s.total - acc.sum_l.total)


# ---------------------------------------------------------------------------
# Signed terms and box optimization
# ---------------------------------------------------------------------------

POS, NEG = 1, -1


@dataclass(frozen=True)
class SignedTerm:
    """coefficient * prod of literals, literal = x_i (POS) or 1-x_i (NEG)."""

    coefficient: float
    literals: tuple[tuple[int, int], ...]  # sorted (variable, polarity)

    @staticmethod
    def make(coefficient: float, literals) -> "SignedTerm":
        return SignedTerm(coefficient, tuple(sorted(literals)))


def minterm_term(mask: int, n: int) -> SignedTerm:
    lits = [(i, POS if mask >> i & 1 else NEG) for i in range(n)]
    return SignedTerm(1.0, tuple(lits))


def terms_from_bitstrings(masks, n: int) -> list[SignedTerm]:
    return [minterm_term(m, n) for m in masks]


def _n_words(n: int) -> int:
    return max(1, -(-n // 64))


def _words_of(masks, n_words: int) -> np.ndarray:
    """Python-int bit sets as a [len(masks), n_words] uint64 array."""
    out = np.empty((len(masks), n_words), dtype=np.uint64)
    for w in range(n_words):
        out[:, w] = np.fromiter(((m >> 64 * w) & _WORD_MASK for m in masks),
                                dtype=np.uint64, count=len(masks))
    return out


def _bit(var: int) -> tuple[int, np.uint64]:
    """(word index, bit within the word) of a variable."""
    w, b = divmod(var, 64)
    return w, np.uint64(1 << b)


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """Bit sets as a C-contiguous [n, T] bool array (row i: holds variable i)."""
    by = np.ascontiguousarray(words.astype("<u8", copy=False)).view(np.uint8)
    bits = np.unpackbits(by, axis=1, count=n, bitorder="little")
    return np.ascontiguousarray(bits.T).view(bool)


def _products(p_bits, n_bits, p_factor, n_factor) -> np.ndarray:
    """Per row: p_factor[i] for each positive and n_factor[i] for each
    negative literal, multiplied in variable order."""
    f = np.where(p_bits, p_factor[:, None], np.where(n_bits, n_factor[:, None], 1.0))
    return np.multiply.reduce(f, axis=0)


class TermArray:
    """A sum of signed terms as parallel arrays.

    Row t is coef[t] * prod_{i in pos[t]} x_i * prod_{i in neg[t]} (1 - x_i);
    `pos` and `neg` are [T, ceil(n/64)] uint64 bit sets.
    """

    __slots__ = ("coef", "pos", "neg")

    def __init__(self, coef: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> None:
        self.coef = coef
        self.pos = pos
        self.neg = neg

    def __len__(self) -> int:
        return self.coef.size

    @staticmethod
    def minterms(masks, n: int) -> "TermArray":
        """The minterms of the bitstrings `masks` over n channels."""
        w = _n_words(n)
        pos = _words_of(masks, w)
        return TermArray(np.ones(len(masks)), pos, pos ^ _words_of([(1 << n) - 1], w))

    @staticmethod
    def from_signed(terms, n: int) -> "TermArray":
        coef, pos, neg = [], [], []
        for t in terms:
            p = q = 0
            for var, pol in t.literals:
                if not 0 <= var < n:
                    raise ValueError(f"variable {var} outside 0..{n - 1}")
                if (p | q) >> var & 1:
                    raise ValueError(f"variable {var} repeated in a term")
                if pol == POS:
                    p |= 1 << var
                else:
                    q |= 1 << var
            coef.append(t.coefficient)
            pos.append(p)
            neg.append(q)
        w = _n_words(n)
        return TermArray(np.array(coef, dtype=float), _words_of(pos, w), _words_of(neg, w))

    def to_signed(self) -> list[SignedTerm]:
        out = []
        for c, p, q in zip(self.coef.tolist(), self.pos.tolist(), self.neg.tolist()):
            lits = []
            for k, (pw, qw) in enumerate(zip(p, q)):
                for b in range(64):
                    if pw >> b & 1:
                        lits.append((64 * k + b, POS))
                    elif qw >> b & 1:
                        lits.append((64 * k + b, NEG))
            out.append(SignedTerm(c, tuple(lits)))
        return out

    def variables(self) -> list[int]:
        """Sorted variables that occur in some row."""
        if not len(self):
            return []
        occur = np.bitwise_or.reduce(self.pos | self.neg, axis=0)
        return np.flatnonzero(_bits(occur[None, :], 64 * occur.size)[:, 0]).tolist()

    def _holding(self, var: int):
        w, bit = _bit(var)
        return w, bit, (self.pos[:, w] & bit) != 0, (self.neg[:, w] & bit) != 0

    def merged(self) -> "TermArray":
        """Rows with equal (pos, neg) summed into the first of them, in
        order of first appearance; rows summing to zero dropped."""
        coef, pos, neg = self.coef, self.pos, self.neg
        if coef.size > 1:
            keys = np.hstack((pos, neg))
            order = np.lexsort(keys.T)  # stable: each group keeps input order
            sk = keys[order]
            starts = np.flatnonzero(
                np.concatenate(([True], (sk[1:] != sk[:-1]).any(axis=1))))
            if starts.size < coef.size:
                sums = np.add.reduceat(coef[order], starts)
                first = order[starts]
                keep = np.argsort(first)
                rows = first[keep]
                coef, pos, neg = sums[keep], pos[rows], neg[rows]
        nonzero = coef != 0.0
        if not nonzero.all():
            coef, pos, neg = coef[nonzero], pos[nonzero], neg[nonzero]
        return TermArray(coef, pos, neg)

    def derivative(self, var: int) -> "TermArray":
        """d/dx_var, merged: rows without `var` drop out, positive literals
        keep their coefficient and negative ones flip its sign."""
        w, bit, p, q = self._holding(var)
        held = p | q
        coef = np.where(p, self.coef, -self.coef)[held]
        pos, neg = self.pos[held], self.neg[held]
        pos[:, w] &= ~bit
        neg[:, w] &= ~bit
        return TermArray(coef, pos, neg).merged()

    def substitute(self, var: int, value: float) -> "TermArray":
        """Fix x_var = value, merged."""
        w, bit, p, q = self._holding(var)
        coef = self.coef * np.where(p, value, np.where(q, 1.0 - value, 1.0))
        pos, neg = self.pos.copy(), self.neg.copy()
        pos[:, w] &= ~bit
        neg[:, w] &= ~bit
        return TermArray(coef, pos, neg).merged()

    def termwise(self, lo: np.ndarray, hi: np.ndarray) -> tuple[float, float]:
        """Sound interval for the sum over the box [lo, hi]: the sum of
        per-term minima and the sum of per-term maxima."""
        if not len(self):
            return 0.0, 0.0
        p_bits, n_bits = _bits(self.pos, lo.size), _bits(self.neg, lo.size)
        prod_max = _products(p_bits, n_bits, hi, 1.0 - lo)
        prod_min = _products(p_bits, n_bits, lo, 1.0 - hi)
        c = self.coef
        at_min, at_max = c * prod_min, c * prod_max
        negative = c < 0.0
        low = np.where(negative, at_max, at_min)
        high = np.where(negative, at_min, at_max)
        return math.fsum(low.tolist()), math.fsum(high.tolist())

    def evaluate(self, point) -> float:
        x = np.asarray(point, dtype=float)
        if not len(self):
            return 0.0
        prods = _products(_bits(self.pos, x.size), _bits(self.neg, x.size), x, 1.0 - x)
        return math.fsum((self.coef * prods).tolist())

    def vertex_values(self, lo: np.ndarray, hi: np.ndarray, free: list[int]) -> np.ndarray:
        """Values at all 2^len(free) vertices; bit j of a vertex's index
        puts free[j] at its upper end.  Every variable of the rows must be
        in `free`."""
        f = len(free)
        n = max(free) + 1
        p_bits, n_bits = _bits(self.pos, n)[free], _bits(self.neg, n)[free]
        fl, fh = lo[free][:, None], hi[free][:, None]
        # [f, T] factor of each free variable at its lower / upper end
        at_lo = np.where(p_bits, fl, np.where(n_bits, 1.0 - fl, 1.0))
        at_hi = np.where(p_bits, fh, np.where(n_bits, 1.0 - fh, 1.0))
        n_vert = 1 << f
        chunk = min(n_vert, _VERTEX_CHUNK)
        rows = max(1, _VERTEX_BLOCK // chunk)
        total = np.zeros(n_vert)
        for v0 in range(0, n_vert, chunk):
            idx = np.arange(v0, min(v0 + chunk, n_vert))
            up = [((idx >> j) & 1).astype(bool) for j in range(f)]
            for r0 in range(0, len(self), rows):
                r1 = min(r0 + rows, len(self))
                # row 0 carries the running total, so the sum over axis 0
                # adds the terms one after another in row order
                val = np.empty((r1 - r0 + 1, idx.size))
                val[0] = total[v0:v0 + idx.size]
                val[1:] = self.coef[r0:r1, None]
                for j in range(f):
                    val[1:] *= np.where(up[j], at_hi[j, r0:r1, None], at_lo[j, r0:r1, None])
                total[v0:v0 + idx.size] = val.sum(axis=0)
        return total


class MintermStore:
    """A growing list of bitstrings over n channels, each standing for its
    minterm with coefficient 1."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.masks: list[int] = []

    def append(self, mask: int) -> None:
        self.masks.append(mask)

    def __len__(self) -> int:
        return len(self.masks)

    def terms(self) -> TermArray:
        return TermArray.minterms(self.masks, self.n)


def _as_terms(terms, n: int) -> TermArray:
    """A MintermStore or a sequence of SignedTerm, as a TermArray."""
    if isinstance(terms, MintermStore):
        return terms.terms()
    return TermArray.from_signed(terms, n)


def _box_arrays(box: Hyperrectangle) -> tuple[np.ndarray, np.ndarray]:
    return np.array(box.lower, dtype=float), np.array(box.upper, dtype=float)


def evaluate_terms(terms, point) -> float:
    return _as_terms(terms, len(point)).evaluate(point)


def bound_terms_individually(terms, box: Hyperrectangle) -> tuple[float, float]:
    """Sound interval for the sum over the box: sum of per-term extrema."""
    return _as_terms(terms, box.n).termwise(*_box_arrays(box))


def partial_derivative_simplified(terms, var: int) -> list[SignedTerm]:
    """d/dx_var with matching-term cancellation.

    Every input term must contain `var`.  A POS literal contributes
    +coefficient, a NEG literal -coefficient, with the literal removed;
    terms with identical remaining literal maps merge exactly (matching
    minterm pairs have identical magnitudes, so cancellation is exact).
    """
    terms = list(terms)
    n = 1 + max([var] + [v for t in terms for v, _ in t.literals])
    arr = TermArray.from_signed(terms, n)
    _, _, p, q = arr._holding(var)
    if not (p | q).all():
        raise ValueError(f"term lacks variable {var}")
    return arr.derivative(var).to_signed()


@dataclass(frozen=True)
class OptimizationResult:
    vertex: tuple[float, ...]
    value: float
    exact: bool


def _optimize(terms: TermArray, box: Hyperrectangle, sense: int,
              f_max: int) -> tuple[OptimizationResult, TermArray]:
    """sense=+1 maximizes, sense=-1 minimizes.  Also returns the terms left
    after pruning, whose free variables the vertex search covered."""
    n = box.n
    lo, hi = _box_arrays(box)
    terms = terms.merged()
    fixed: dict[int, float] = {}
    # Repeat the pruning sweep while it makes progress: substitutions can
    # unlock further sign certificates.
    progress = True
    while progress:
        progress = False
        for i in terms.variables():
            if i in fixed:
                continue
            d_lo, d_hi = terms.derivative(i).termwise(lo, hi)
            if d_lo > 0.0:
                choice = box.upper[i] if sense > 0 else box.lower[i]
            elif d_hi < 0.0:
                choice = box.lower[i] if sense > 0 else box.upper[i]
            else:
                continue
            fixed[i] = choice
            terms = terms.substitute(i, choice)
            progress = True

    free = terms.variables()
    exact = True
    if not free:
        # no variables left: at most one constant row
        value = float(terms.coef.sum())
    elif len(free) <= f_max:
        vals = terms.vertex_values(lo, hi, free)
        best = int(np.argmax(vals) if sense > 0 else np.argmin(vals))
        value = float(vals[best])
        for j, var in enumerate(free):
            fixed[var] = box.upper[var] if (best >> j) & 1 else box.lower[var]
    else:
        # A feasible vertex: under-estimates the max, over-estimates the min.
        exact = False
        for var in free:
            fixed[var] = box.upper[var] if sense > 0 else box.lower[var]
        value = terms.evaluate([fixed.get(i, box.lower[i]) for i in range(n)])

    vertex = tuple(fixed.get(i, box.lower[i]) for i in range(n))
    return OptimizationResult(vertex, value, exact), terms


def maximize(terms, box: Hyperrectangle, f_max: int = F_MAX_DEFAULT) -> OptimizationResult:
    """Exact box maximum of a sum of signed terms (multilinear); `terms` is
    a sequence of SignedTerm or a MintermStore."""
    return _optimize(_as_terms(terms, box.n), box, +1, f_max)[0]


def minimize(terms, box: Hyperrectangle, f_max: int = F_MAX_DEFAULT) -> OptimizationResult:
    """Exact box minimum of a sum of signed terms (multilinear); `terms` is
    a sequence of SignedTerm or a MintermStore."""
    return _optimize(_as_terms(terms, box.n), box, -1, f_max)[0]


@dataclass(frozen=True)
class RobustnessBounds:
    lower: float
    upper: float
    lower_exact: bool
    upper_exact: bool
    witness_vertex: tuple[float, ...]


def robustness_bounds(l_terms, s_not_l_terms, box: Hyperrectangle,
                      f_max: int = F_MAX_DEFAULT) -> RobustnessBounds:
    """Sound bounds on the worst-case rate over the box:
    max p_{L&S} <= max p_L <= 1 - min p_{S\\L}.

    Each side is a sequence of SignedTerm or a MintermStore.  When vertex
    search is truncated on the S\\L side, the termwise lower bound of the
    terms left after pruning stands in for its minimum.  With
    `s_not_l_terms` None the upper side is not optimized and is reported as
    the trivial bound 1, flagged inexact.
    """
    lo = maximize(l_terms, box, f_max)
    if s_not_l_terms is None:
        return RobustnessBounds(lo.value, 1.0, lo.exact, False, lo.vertex)
    hi, rest = _optimize(_as_terms(s_not_l_terms, box.n), box, -1, f_max)
    s_min = hi.value if hi.exact else rest.termwise(*_box_arrays(box))[0]
    return RobustnessBounds(lo.value, 1.0 - s_min, lo.exact, hi.exact, lo.vertex)
