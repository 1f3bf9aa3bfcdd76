"""Error minterms, bound accumulators, and box optimization.

A minterm for bitstring e is prod_{e_i=1} x_i * prod_{e_i=0} (1-x_i); an
error polynomial is a sum of minterms.  This module evaluates minterms at
a point, accumulates running lower/upper bounds on the logical error rate,
and optimizes polynomials exactly over hyperrectangles by partial-derivative
pruning with matching-term simplification, followed by exhaustive vertex
search over the surviving free variables.

Term representation.  The optimizer holds a sum of signed terms as
parallel arrays (`TermArray`): a float64 coefficient per term and two bit
sets per term, the variables that appear as x_i (`pos`) and those that
appear as 1-x_i (`neg`), each stored as ceil(n/64) uint64 words, so one
code path serves every channel count.  A partial derivative selects the
rows that hold the variable, signs their coefficients, clears the bit and
merges rows with equal (pos, neg) by sorting and summing; for minterms the
matching pairs have equal magnitudes, so the cancellation is exact.
Substitution fixes a set of variables at once: it scales each row by its
factors, clears their bits and merges the same way.  `SignedTerm` lists
remain the public exchange format and are converted to arrays at the
public functions; the driver hands its minterm stores (`MintermStore`)
over directly.

Pruning in rounds.  A round bounds every live variable's merged partial
derivative termwise over the box in one vectorized pass
(`TermArray.certify`) and fixes every variable whose bound has a certain
sign (d_lo > 0 or d_hi < 0) in one substitution; rounds repeat until none
is certified.  A round that certifies every live variable ends the
search: the vertex is complete, nothing is substituted, and what is left
is the constant term.  Fixing them together is sound: each certificate
holds on the whole box, so any point can be moved to the certified end
of each certified variable, one coordinate at a time, without worsening
the objective.  In exact arithmetic a substituted box end and a merge only
shrink every later derivative's termwise interval, so the rounds fix a
superset of the variables that a one-at-a-time sweep fixes, with the
same choices, and exactness flags can only improve.  The pass needs
signs, not sums: it adds each variable's terms in any order and trusts
the sign outside an error bound that covers the summation and the
rounding of the products (Higham, Accuracy and Stability of Numerical
Algorithms, 4.2); only a variable inside that bound takes the
per-variable `derivative(i).termwise`, so the decisions equal that
reference's.  Every variable takes it when a product could leave the
normal range, judged from the rows actually fed, or when a live
variable has an end at 1.  The pass is a running sum over rows
(`_SignPass`) in factored form.  A pass holds rows of one cover (the
variables of a row's literals), as every store and substituted round
does: they share the product G of their 1 - x_j factors, and a row's
other factors are G / N_k times a product of ratios x_j / (1 - x_j) over
its positive literals, so a row costs its positive literals rather than
every variable.  Per variable, the sum over the rows that hold 1 - x_k
is one total minus a sparse sum over the rows that hold x_k or a
partner.  In its error bound, A counts the additions any one value takes
part in.  `certify` feeds rows of one cover to a fresh pass all at once;
rows of several covers take the per-variable reference.  A
`MintermStore` keeps the pass of the last box it was asked about, so
round 1 of a robustness checkpoint adds only the rows stored since the
previous one.  A pass takes rows in weight order, as `hamming` stores
them, and the store starts a fresh one when a row comes out of order;
later rounds certify the substituted terms afresh.

Summation.  Per-term products multiply their factors in variable order,
and every value reported is their `math.fsum` sum, rounded once: the
running sums of the accumulators, termwise bounds and point evaluations,
and the optimum, which sums the given terms at the chosen vertex (not the
substituted ones, whose merges add coefficients).  A `MintermStore` keeps
that sum at its last vertex as a running `_ExactSum`, so while the vertex
holds a checkpoint adds only the rows stored since the previous one.
Vertex search sums terms in row order, but that only picks the vertex.

Truncation.  When more than f_max free variables survive pruning, or a
deadline passes between pruning rounds or during vertex search, the
search is skipped or stopped and the result is flagged inexact:
`maximize` and `minimize` return the value at a feasible vertex (free
variables at their upper, resp. lower, ends).  That value cannot exceed
the maximum, so it stays a sound lower side, but it can exceed the
minimum.  `robustness_bounds` therefore takes the termwise lower bound
of the terms that survive pruning as the minimum, so `1 - min p_{S\\L}`
stays a sound upper bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

# Package module before numpy; see the note in decoders.py.
from .errorspace import (bits_of as _bits_of, n_words as _n_words, row_keys,
                         supports_of_words, words_of as _words_of)

import numpy as np

# Absolute floating-point soundness margin applied to reported bounds.
FP_MARGIN = 1e-12

# Default cap on the exhaustive phase: up to 2^F_MAX vertex evaluations.
F_MAX_DEFAULT = 24

# Vertex search takes at most _VERTEX_CHUNK vertices at a time, and as many
# rows as keep a block within _VERTEX_BLOCK (row, vertex) values.
_VERTEX_CHUNK = 1 << 16
_VERTEX_BLOCK = 1 << 18

# The sign pass takes rows in pieces of at most _SIGN_CELLS (row, positive
# literal) cells, so its working arrays stay small for any number of rows.
_SIGN_CELLS = 1 << 12


class _ExactSum:
    """Running sum kept as a pair: `total` is the sum of every value added,
    rounded once, and `_lo` is what `total` leaves out, rounded, so the
    pair holds the sum to about 2^-106 relative, whatever the order and
    the blocks of the additions."""

    __slots__ = ("total", "_lo")

    def __init__(self) -> None:
        self.total = 0.0
        self._lo = 0.0

    def add_all(self, xs: list[float]) -> None:
        terms = [self.total, self._lo, *xs]
        self.total = math.fsum(terms)
        terms.append(-self.total)
        self._lo = math.fsum(terms)


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
    def scaled(v, lo_scale: float, hi_scale: float) -> "Hyperrectangle":
        """Multiplicative box around a nominal point, clipped to [0, 1]."""
        lo = [x * lo_scale for x in v]
        hi = [x * hi_scale for x in v]
        if any(map(math.isnan, lo + hi)):  # max and min would drop a NaN, as from 0 * inf
            raise ValueError(f"box scale ({lo_scale}, {hi_scale}) gives an end that is not a number")
        return Hyperrectangle(tuple(max(0.0, x) for x in lo), tuple(min(1.0, x) for x in hi))


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
        self._ratio_table = np.array(self.ratio + (1.0,))

    def __call__(self, mask: int) -> float:
        r = self.base
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            r *= self.ratio[i]
            m &= m - 1
        return r

    def block(self, cols: np.ndarray) -> np.ndarray:
        """Minterms of a block given as support columns ([k, B] channel
        indices, n for none; see `errorspace.Footprints`).  Factors are
        multiplied in column order, which is ascending channel order, and a
        padding factor is 1.0, so each value equals __call__'s."""
        p = np.full(cols.shape[1], self.base)
        for col in cols:
            p *= self._ratio_table[col]
        return p


@dataclass
class BoundAccumulators:
    """Running sums over enumerated bitstrings, each rounded once."""

    sum_l: _ExactSum = field(default_factory=_ExactSum)
    sum_s: _ExactSum = field(default_factory=_ExactSum)

    def accumulate_block(self, probs: np.ndarray, logical: np.ndarray) -> None:
        """Add a block's minterms to sum_S, and those of its logical errors
        to sum_L."""
        self.sum_s.add_all(probs.tolist())
        self.sum_l.add_all(probs[logical].tolist())


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


def _bit(var: int) -> tuple[int, np.uint64]:
    """(word index, bit within the word) of a variable."""
    w, b = divmod(var, 64)
    return w, np.uint64(1 << b)


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """Bit sets as a C-contiguous [n, T] bool array (row i: holds variable i)."""
    return np.ascontiguousarray(_bits_of(words, n).T)


def _chunk_rows(width: int) -> int:
    """Rows per chunk of [width, rows] working arrays: at most
    _VERTEX_BLOCK // 16 values each, so the handful of them a chunk needs
    stay well within one vertex-search block."""
    return max(1, _VERTEX_BLOCK // (16 * width))


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

    def __getitem__(self, idx) -> "TermArray":
        return TermArray(self.coef[idx], self.pos[idx], self.neg[idx])

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

    def substitute(self, values: dict[int, float]) -> "TermArray":
        """Fix x_var = value for every (var, value) in `values`, merged.
        Each row's coefficient is multiplied by its factors in variable
        order."""
        fixed = sorted(values)
        v = np.array([values[var] for var in fixed])[:, None]
        n = fixed[-1] + 1
        coef = np.empty(len(self))
        rows = _chunk_rows(len(fixed) + 1)
        for r0 in range(0, len(self), rows):
            r1 = min(r0 + rows, len(self))
            # row 0 is the coefficient, so the reduction multiplies it by
            # the factors one after another
            f = np.empty((len(fixed) + 1, r1 - r0))
            f[0] = self.coef[r0:r1]
            p, q = _bits(self.pos[r0:r1], n)[fixed], _bits(self.neg[r0:r1], n)[fixed]
            f[1:] = np.where(p, v, np.where(q, 1.0 - v, 1.0))
            coef[r0:r1] = np.multiply.reduce(f, axis=0)
        clear = ~_words_of([sum(1 << var for var in fixed)], self.pos.shape[1])
        return TermArray(coef, self.pos & clear, self.neg & clear).merged()

    def certify(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Signs of every live variable's derivative bounds.

        Returns (variables, lo_sign, hi_sign): the sorted variables that
        occur in some row and, for each, the signs (-1, 0 or 1) of d_lo and
        d_hi in `self.derivative(var).termwise(lo, hi)`.  Rows of one cover
        (every store and substituted round) must be merged (no pos twice)
        and take one fresh `_SignPass` fed every row at once; rows of
        several covers take that reference for each variable."""
        live = self.variables()
        if not live:
            return (np.zeros(0, dtype=np.intp),) * 3
        covers = self.pos | self.neg
        if (covers != covers[0]).any():
            signs = np.array([np.sign(self.derivative(var).termwise(lo, hi)) for var in live])
            return np.array(live, dtype=np.intp), signs[:, 0], signs[:, 1]
        sign_pass = _SignPass(lo, hi, covers[0])
        if not sign_pass.update(self):
            raise ValueError("certify needs merged rows")
        return sign_pass.signs(self)

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

    def vertex_values(self, lo: np.ndarray, hi: np.ndarray, free: list[int],
                      deadline: float | None = None) -> np.ndarray | None:
        """Values at all 2^len(free) vertices; bit j of a vertex's index
        puts free[j] at its upper end.  Every variable of the rows must be
        in `free`.  None when `deadline` (a `time.monotonic()` value) has
        passed before a chunk of _VERTEX_CHUNK vertices starts."""
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
            if deadline is not None and time.monotonic() > deadline:
                return None
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


class _SignPass:
    """`TermArray.certify` as a running sum over rows.

    For the box [lo, hi] it keeps, per variable and per side (d_lo and
    d_hi of the variable's merged derivative, bounded termwise), the
    running sum of operands and a bound on the sum of their absolute values
    (`mags`).  An operand is a derivative coefficient times the product of
    the row's other factors at the box end that the coefficient's sign
    selects: at_min for a coefficient >= 0 on the d_lo side and for one
    < 0 on the d_hi side, at_max otherwise.  The pass also keeps A (see
    `signs`), the rows' keys, sorted, with their coefficients, and the
    log2 range of the partial products (see `signs`).  `update` adds rows
    and `signs` reads the signs off the sums.

    Merging.  A row holding x_k merges in d/dx_k with its partner, the row
    with the same other literals and 1 - x_k.  Both have the same other
    factors, so a pair adds one operand, c_pos - c_neg times them.  A row
    without partner adds its lone operand, c_pos or -c_neg times them.
    `update` refuses a row with fewer positive literals than one it holds.
    A partner has one fewer at x_k, so only an old row's 1 - x_k can meet
    its partner later.  Then its lone operand is taken back (the same
    value, subtracted) and the pair's operand is added.

    Factored form.  At one box end let H_j and N_j be the factors of x_j
    and 1 - x_j, and R_j = H_j / N_j.  The rows of one cover C (the
    variables of pos | neg) share G = prod_{j in C} N_j, and row t's
    product is G M_t with M_t = prod_{j in pos_t} R_j.  Without x_k it is
    (G / N_k) L, where L = M_t for k in neg_t, and for k in pos_t L is the
    product of the row's other R_j (a prefix times a suffix product over
    its positive literals; no division), which is also M of its partner.
    An operand takes the end that the sign of its coefficient selects, so
    values are summed per end and per class (coefficient >= 0 or < 0).
    Over the rows t that hold x_k, with c_p the partner's coefficient (0
    without one), variable k's sum at one end and in one class is G / N_k
    times

        sum of (c_t - c_p) L  +  sum of c_p L  +  sum of c_t M_t  -  T,

    each sum over the rows whose value falls in the class, and T = sum
    c_t M_t over every row in the class.  A row's lone 1 - x_k operand
    is -c_t (G / N_k) M_t, so c_t M_t and T take the class of -c_t, and c_p
    L that of -c_p: -T plus the c_t M_t of the rows holding x_k is the sum
    of every 1 - x_k operand, and c_p L takes back the one of a row whose
    partner holds x_k (a new partner merges it now; an old one takes back
    what an earlier update added).  Each sum has one value per positive
    literal and T one per class, so an update costs O(positive literals
    + variables) rather than O(rows x variables).  `update` takes the
    rows in pieces of at most _SIGN_CELLS positive-literal cells.  The
    values that cancel stay in `mags`, which takes G / N_k times |T| plus
    the sparse magnitudes: in floating point the error of the difference
    is that of its parts.

    Keys.  A pass holds rows of one `cover`, given when it is made, and
    keys a row by its pos words (`row_keys`, one uint64 for n <= 64).
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, cover: np.ndarray) -> None:
        self.lo, self.hi = lo, hi
        self.cover = cover  # [n_words] pos | neg of every row
        self.live = np.flatnonzero(_bits_of(cover[None, :], lo.size)[0])
        self.sums = np.zeros((2, lo.size))  # d_lo, d_hi
        self.mags = np.zeros((2, lo.size))
        self.count = 0  # A
        # Per box end (at_min, at_max) and variable: N, R, and the log2 of
        # R's part below and above 1 (0 for R = 0).  A factor N of 0 is
        # taken as 1 (`signs` then doubts every variable).  Column n pads a
        # support with the exact factor 1.
        neg = np.stack((1.0 - hi, 1.0 - lo))
        self.neg = np.where(neg > 0.0, neg, 1.0)
        ratio = np.stack((lo, hi)) / self.neg
        with np.errstate(divide="ignore"):
            log_r = np.log2(ratio)
        pad = np.zeros((2, 1))
        self.ratio = np.hstack((ratio, pad + 1.0))
        self.log_below = np.hstack((np.where(ratio > 0.0, np.minimum(log_r, 0.0), 0.0), pad))
        self.log_above = np.hstack((np.maximum(log_r, 0.0), pad))
        self.floor, self.ceiling = math.inf, -math.inf
        self.keys = row_keys(np.zeros((0, cover.size), dtype=np.uint64))
        self.coef = np.zeros(0)
        self.heaviest = 0  # most positive literals of a row held

    def update(self, rows: TermArray) -> bool:
        """Add rows; False, with nothing added, when a row's key is in the
        pass already or repeats among them, when a row has fewer positive
        literals than one the pass holds, or when a row is not of the
        pass's one cover."""
        size = len(rows)
        if not size:
            return True
        weight = np.bitwise_count(rows.pos).sum(axis=1)
        if weight.min() < self.heaviest or ((rows.pos | rows.neg) != self.cover).any():
            return False
        all_keys = np.concatenate((self.keys, row_keys(rows.pos)))
        order = np.argsort(all_keys)
        all_keys = all_keys[order]
        if (all_keys[1:] == all_keys[:-1]).any():
            return False
        all_coef = np.concatenate((self.coef, rows.coef))[order]
        step = max(1, _SIGN_CELLS // max(int(weight.max()), 1))
        for r0 in range(0, size, step):
            piece = rows[r0:r0 + step]
            # log2(0) is -inf for the guard of `signs`, which then reads no
            # sum that left the range
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                self._add(piece, all_keys, all_coef)
            self.count += len(piece) + 4
        self.keys, self.coef = all_keys, all_coef
        self.heaviest = int(weight.max())
        return True

    def _add(self, rows: TermArray, keys: np.ndarray, coef: np.ndarray) -> None:
        """Add the operands of rows, in the factored form; `keys` and `coef`
        are those of every row held, in key order."""
        n, cover = self.lo.size, self.live
        sup = supports_of_words(rows.pos, n)
        cells = np.flatnonzero(sup < n)  # the positive literals, row by row
        t, var = cells // max(sup.shape[1], 1), sup.ravel()[cells]
        query = self._partner_keys(rows, t, var)
        order = np.argsort(query)  # sorted needles are found faster
        at = np.empty_like(order)
        at[order] = np.minimum(np.searchsorted(keys, query[order]), len(keys) - 1)
        c_p = np.where(keys[at] == query, coef[at], 0.0)
        c = rows.coef
        d = c[t] - c_p
        # per variable, bins [0, n) for operand coefficients >= 0 and
        # [n, 2n) for those < 0; a row's 1 - x_k operand is -c_t
        row_class = (c > 0.0).astype(np.intp)
        bins = (var + n * (d < 0.0), var + n * (c_p > 0.0), var + n * row_class[t])
        log_c = np.log2(np.abs(c))
        sums, mags = [], []
        for end in (0, 1):
            r = self.ratio[end][sup]
            pre = np.ones_like(r)
            np.cumprod(r[:, :-1], axis=1, out=pre[:, 1:])
            suf = np.ones_like(r)
            suf[:, :-1] = np.cumprod(r[:, :0:-1], axis=1)[:, ::-1]
            loo = pre.ravel()[cells] * suf.ravel()[cells]  # L
            cm = c * np.multiply.reduce(r, axis=1)  # c_t M_t
            total = np.bincount(row_class, cm, minlength=2)[:, None]  # T
            parts = (d * loo, c_p * loo, cm[t])
            s = sum(np.bincount(b, w, 2 * n) for b, w in zip(bins, parts))
            a = sum(np.bincount(b, np.abs(w), 2 * n) for b, w in zip(bins, parts))
            g = np.multiply.reduce(self.neg[end, cover])
            q = g / self.neg[end, cover]  # G / N_k
            sums.append(q * (s.reshape(2, n)[:, cover] - total))
            mags.append(q * (a.reshape(2, n)[:, cover] + np.abs(total)))
            self.floor = min(self.floor, float(
                (np.log2(g) + self.log_below[end][sup].sum(axis=1) + log_c).min()))
            self.ceiling = max(self.ceiling, float(
                (self.log_above[end][sup].sum(axis=1) + log_c).max()))
        # d_lo takes at_min for coefficients >= 0 and at_max for those < 0,
        # d_hi the other way
        self.sums[0, cover] += sums[0][0] + sums[1][1]
        self.sums[1, cover] += sums[1][0] + sums[0][1]
        self.mags[0, cover] += mags[0][0] + mags[1][1]
        self.mags[1, cover] += mags[1][0] + mags[0][1]

    def _partner_keys(self, rows: TermArray, t: np.ndarray, var: np.ndarray) -> np.ndarray:
        """Keys of rows t with variable var moved from pos to neg."""
        k, w = np.arange(t.size), var // 64
        pos = rows.pos[t]
        pos[k, w] ^= np.left_shift(np.uint64(1), (var % 64).astype(np.uint64))
        return row_keys(pos)

    def signs(self, terms: TermArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`terms.certify(lo, hi)`, where `terms` holds the rows fed so far,
        merged.

        The sign of a sum s is trusted where |s| > gamma_m * mags, with
        gamma_m = m u / (1 - m u), u = 2^-53 and m = 2 (A + 2 V + 2 W + 1)
        for V live variables and W the most positive literals of a row.
        Then it is the sign of the reference's correctly rounded
        `math.fsum`, as follows.
        - Each value summed (the operands, and the values that cancel in
          exact arithmetic) is a product of exact data: coefficients and
          factors, a pair's c_pos - c_neg being the reference's merged
          coefficient.  R_j and G / N_k are quotients, and quotients count
          as roundings (Higham, Accuracy and Stability of Numerical
          Algorithms, Lemma 3.1).  G takes at most V - 1 roundings, G / N_k
          one more, each R_j one, M_t or L at most W - 1, its coefficient
          one and the factor G / N_k one: at most 2 W + V + 1 in all.
        - On its way to s a value takes part in at most A additions.  A
          piece of S rows adds S + 4 to A: a bin and T each sum at most S
          values (a row holds x_k once), two additions join the three bins
          and one takes T off, one adds the two box ends, and each piece
          adds once to the running sum.
        - The reference's operand takes at most V - 1 roundings.
        So s and the exact sum of the reference's operands differ by at
        most gamma_q times the values' magnitudes, q = A + 2 V + 2 W + 1;
        `mags`, summed the same way, is at least 1 - gamma_q times those,
        and gamma_q / (1 - gamma_q) <= gamma_{2q}.  So `mags` holds G / N_k
        times |T| plus the sparse values' magnitudes, not the magnitude of
        the difference they cancel to: in floating point the difference
        carries the error of its parts.

        Those bounds hold without underflow and overflow.  For each row
        fed, at each end, every partial product that the pass or the
        reference forms is at least G times the row's R_j below 1 (a zero
        factor makes its product an exact 0, so zeros are left out) times
        the smaller |coefficient| of the row and its partner times 2^-53
        (for c_pos - c_neg), and at most the row's R_j above 1 times twice
        the larger.  The pass keeps these as a running log2 `floor` and
        `ceiling`, without the 2^-53 and the 2, and every variable takes
        the reference when the lower bound is below 2^-1000 (a product
        could leave the normal range; above it, a product of a sum that
        cancels errs by at most 2^-1075, far below u times any one value)
        or the upper above 2^960.  Every variable takes it as well when a
        live variable has an end at 1: a factor N is 0 and there is no G
        to factor out.  Otherwise a variable in doubt takes the reference,
        `terms.derivative(var).termwise`, itself."""
        live = self.live if len(self.keys) else self.live[:0]
        if not live.size:
            return live, live, live
        sums, mags = self.sums[:, live], self.mags[:, live]
        m = 2 * (self.count + 2 * live.size + 2 * self.heaviest + 1)
        u = np.finfo(float).eps / 2
        doubt = ((np.abs(sums) <= m * u / (1.0 - m * u) * mags) & (mags > 0.0)).any(axis=0)
        if self.floor - 53 < -1000 or self.ceiling + 1 > 960 or (self.hi[live] == 1.0).any():
            doubt[:] = True
        signs = np.sign(sums)
        for k in np.flatnonzero(doubt):
            signs[:, k] = np.sign(terms.derivative(int(live[k])).termwise(self.lo, self.hi))
        return live, signs[0], signs[1]


class MintermStore:
    """A growing list of bitstrings over n channels, each standing for its
    minterm with coefficient 1.

    The store keeps the first pruning round of the last box it was asked
    about as a `_SignPass`, made at the first call for that box even while
    the store is empty, so `first_round` feeds it only the rows added
    since the previous call.  It starts over from the merged rows for
    another box, when a bitstring repeats, and when a new row is lighter
    than one the pass holds.  Likewise it keeps the sum of its minterms at
    the last vertex it was asked about as a running `_ExactSum`, so
    `value` adds only the rows added since the previous call while the
    vertex holds, and sums every row again when it moves."""

    def __init__(self, n: int) -> None:
        self.n = n
        self._full = _words_of([(1 << n) - 1], _n_words(n))  # [1, ceil(n/64)]
        self._words = [self._full[:0]]  # [T, ceil(n/64)] bit sets
        self._len = 0
        self._box: Hyperrectangle | None = None
        self._pass: _SignPass | None = None
        self._fed = 0  # rows the pass holds
        self._vertex: tuple[float, ...] | None = None
        self._sum = _ExactSum()
        self._summed = 0  # rows the sum holds

    def append(self, mask: int) -> None:
        if not 0 <= mask < 1 << self.n:
            raise ValueError(f"bitstring {mask} does not fit a store of width {self.n}")
        self.extend(_words_of([mask], _n_words(self.n)))

    def extend(self, words: np.ndarray) -> None:
        w = self._full.shape[1]
        if words.dtype != np.uint64 or words.ndim != 2 or words.shape[1] != w:
            raise ValueError(f"rows of a store of width {self.n} are [rows, {w}] uint64 "
                             f"words, not {words.dtype} of shape {words.shape}")
        if (words & ~self._full).any():
            raise ValueError(f"a row has bits at or above {self.n}, in a store of width {self.n}")
        self._words.append(words)
        self._len += len(words)

    def __len__(self) -> int:
        return self._len

    def _rows(self) -> np.ndarray:
        """[T, ceil(n/64)] bit sets of every row, in one array."""
        if len(self._words) > 1:
            self._words[:] = [np.concatenate(self._words)]
        return self._words[0]

    def terms(self) -> TermArray:
        pos = self._rows()
        return TermArray(np.ones(len(pos)), pos, pos ^ self._full)

    def first_round(self, box: Hyperrectangle) -> tuple[TermArray, tuple]:
        """The terms, merged, and their `certify` over the box."""
        if box.n < self.n:
            raise ValueError(f"a box of dimension {box.n} does not cover a store of width {self.n}")
        terms = self.terms()
        if box != self._box:
            self._box, self._pass, self._fed = box, None, 0
        if self._pass is None or not self._pass.update(terms[self._fed:]):
            self._pass = _SignPass(*_box_arrays(box), self._full[0])
            self._pass.update(terms.merged())
        self._fed = len(terms)
        if len(self._pass.keys) < len(terms):  # a bitstring repeats
            terms = terms.merged()
        return terms, self._pass.signs(terms)

    def value(self, vertex: tuple[float, ...]) -> float:
        """The sum of every row's minterm at the vertex, rounded once; each
        minterm multiplies its factors in variable order, as `evaluate`
        does.  New rows are taken in chunks of `_chunk_rows`."""
        if vertex != self._vertex:
            self._vertex, self._sum, self._summed = vertex, _ExactSum(), 0
        pos = self._rows()
        x = np.array(vertex[:self.n])[:, None]
        rows = _chunk_rows(max(self.n, 1))
        for r0 in range(self._summed, len(pos), rows):
            f = np.where(_bits(pos[r0:r0 + rows], self.n), x, 1.0 - x)
            self._sum.add_all(np.multiply.reduce(f, axis=0).tolist())
        self._summed = len(pos)
        return self._sum.total


def _as_terms(terms, n: int) -> TermArray:
    """A MintermStore, a TermArray or a sequence of SignedTerm, as a
    TermArray."""
    if isinstance(terms, MintermStore):
        return terms.terms()
    if isinstance(terms, TermArray):
        return terms
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


def _optimize(terms, box: Hyperrectangle, sense: int, f_max: int,
              deadline: float | None = None) -> tuple[OptimizationResult, TermArray]:
    """sense=+1 maximizes, sense=-1 minimizes; `terms` is a sequence of
    SignedTerm, a MintermStore or a TermArray.  Also returns the terms left
    after pruning, whose free variables the vertex search covered; with no
    variable left free, that is the constant term (one row without
    variables that holds the value, or no row for 0).

    Pruning runs in rounds (see the module docstring for why it is sound):
    one `certify` pass over the live variables, then one substitution of
    every certified variable at its better end, until a pass certifies
    none.  A pass that certifies every live variable ends the search: the
    vertex is complete and nothing is substituted.  A MintermStore gives
    the first pass from its running sum (`first_round`).  Once `deadline`
    has passed, no later round starts (the certified variables of the last
    are substituted) and vertex search stops (see `vertex_values`); either
    takes the truncation path.  Terms left without a variable are still
    exact.  The value reported is the sum of the given terms' values at
    the vertex chosen, rounded once (a store's running `value`)."""
    lo, hi = _box_arrays(box)
    if isinstance(terms, MintermStore):
        value_at = terms.value
        terms, signs = terms.first_round(box)
    else:
        given = _as_terms(terms, box.n)
        value_at = given.evaluate
        terms = given.merged()
        signs = terms.certify(lo, hi)
    fixed: dict[int, float] = {}
    # the better end of a variable whose derivative is > 0, resp. < 0
    rising, falling = (box.upper, box.lower) if sense > 0 else (box.lower, box.upper)
    late = False
    while True:
        live, lo_sign, hi_sign = signs
        up, down = lo_sign > 0, hi_sign < 0
        choice = {var: rising[var] for var in live[up].tolist()}
        choice.update((var, falling[var]) for var in live[down].tolist())
        fixed.update(choice)
        if not choice or len(choice) == live.size:
            free = live[~(up | down)].tolist()
            break
        terms = terms.substitute(choice)
        late = deadline is not None and time.monotonic() > deadline
        if late:
            free = terms.variables()
            break
        signs = terms.certify(lo, hi)

    search = free and len(free) <= f_max and not late
    vals = terms.vertex_values(lo, hi, free, deadline) if search else None
    if vals is not None:
        best = int(np.argmax(vals) if sense > 0 else np.argmin(vals))
    else:
        # A feasible vertex: under-estimates the max, over-estimates the min.
        best = (1 << len(free)) - 1 if sense > 0 else 0
    for j, var in enumerate(free):
        fixed[var] = box.upper[var] if (best >> j) & 1 else box.lower[var]
    vertex = tuple(fixed.get(i, box.lower[i]) for i in range(box.n))
    value = value_at(vertex)
    if not free:  # the constant term
        coef = np.array([value] if value else [])
        zeros = np.zeros((coef.size, terms.pos.shape[1]), dtype=np.uint64)
        terms = TermArray(coef, zeros, zeros)
    exact = not free or vals is not None
    return OptimizationResult(vertex, value, exact), terms


def maximize(terms, box: Hyperrectangle, f_max: int = F_MAX_DEFAULT) -> OptimizationResult:
    """Exact box maximum of a sum of signed terms (multilinear); `terms` is
    a sequence of SignedTerm or a MintermStore."""
    return _optimize(terms, box, +1, f_max)[0]


def minimize(terms, box: Hyperrectangle, f_max: int = F_MAX_DEFAULT) -> OptimizationResult:
    """Exact box minimum of a sum of signed terms (multilinear); `terms` is
    a sequence of SignedTerm or a MintermStore."""
    return _optimize(terms, box, -1, f_max)[0]


@dataclass(frozen=True)
class RobustnessBounds:
    lower: float
    upper: float
    lower_exact: bool
    upper_exact: bool
    witness_vertex: tuple[float, ...]


def robustness_bounds(l_terms, s_not_l_terms, box: Hyperrectangle,
                      f_max: int = F_MAX_DEFAULT, *,
                      deadline: float | None = None) -> RobustnessBounds:
    """Sound bounds on the worst-case rate over the box:
    max p_{L&S} <= max p_L <= 1 - min p_{S\\L}.

    Each side is a sequence of SignedTerm or a MintermStore.  When vertex
    search is truncated on the S\\L side, the termwise lower bound of the
    terms left after pruning stands in for its minimum.  Pruning and vertex
    search on either side are also truncated once `deadline` (a
    `time.monotonic()` value) has passed.  With `s_not_l_terms` None the
    upper side is not optimized and is reported as the trivial bound 1,
    flagged inexact.
    """
    lo = _optimize(l_terms, box, +1, f_max, deadline)[0]
    if s_not_l_terms is None:
        return RobustnessBounds(lo.value, 1.0, lo.exact, False, lo.vertex)
    hi, rest = _optimize(s_not_l_terms, box, -1, f_max, deadline)
    s_min = hi.value if hi.exact else rest.termwise(*_box_arrays(box))[0]
    return RobustnessBounds(lo.value, 1.0 - s_min, lo.exact, hi.exact, lo.vertex)
