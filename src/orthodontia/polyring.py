"""Sparse multivariate polynomials with exact integer coefficients.

A polynomial lives in Z[x_1..x_n, y_1..y_m] for a fixed ambient (n, m).
Terms are stored as a dict mapping packed monomial keys to nonzero integer
coefficients.  All operations return fresh values; nothing is mutated
after construction.  The one mutable type is ``Remainder``, the kernel's
accumulator: a basis expansion peels it, the pipe-dream walk adds into it.
``_axpy`` is the one loop that adds a polynomial's terms into a term dict:
``*`` and ``Remainder.add_product`` call it once per term of the shorter
factor.  The operators f + g d_i(f) and d_i itself make one pass over f that
adds each term's share of g d_i(f), merged once per exponent pair (a, b) of
x_i and x_{i+1}; neither d_i(f) nor a product is formed.

A packed key is one int.  From the most significant end it holds the total
degree (unbounded), then one EXP_BITS-wide field per variable: x_1..x_n,
then y_1..y_m.  The top bit of every field is a guard bit, so exponents
must lie in [0, EXP_LIMIT).  With that,

* the product of two monomials is the sum of their keys (no field can
  carry into its neighbour, and a result field that reaches EXP_LIMIT
  shows in its guard bit);
* integer order on keys is canonical order: total degree, then lex on
  the x exponents (x_1 first), then lex on the y exponents.

Only this module knows the format.  The tuple-keyed constructor,
``to_dict``, ``canonical_terms``, ``Remainder.lowest`` and the JSON form are
its boundary.
"""

from __future__ import annotations

import functools
import struct
import sys
from array import array
from typing import Iterable, Iterator

Monomial = tuple[tuple[int, ...], tuple[int, ...]]

EXP_BITS = 16
EXP_LIMIT = 1 << (EXP_BITS - 1)
_FIELD_MASK = (1 << EXP_BITS) - 1
# terms per piece of Polynomial.json_chunks
JSON_BATCH = 4096


class AmbientMismatch(ValueError):
    pass


class ExponentRangeError(ValueError):
    """An exponent is negative or at least EXP_LIMIT."""


class _Layout:
    """Field positions of the packed keys of one ambient (n, m)."""

    __slots__ = ("n", "m", "shifts", "deg_shift", "deg_one", "guard", "low_mask", "nbytes",
                 "unpack", "x_shift", "x_mask", "y_mask", "x_fields", "y_fields")

    def __init__(self, n: int, m: int):
        nvars = n + m
        self.n, self.m = n, m
        # variable k (x_1..x_n, then y_1..y_m) sits at shifts[k]
        self.shifts = tuple(EXP_BITS * (nvars - 1 - k) for k in range(nvars))
        self.deg_shift = EXP_BITS * nvars
        self.deg_one = 1 << self.deg_shift
        self.guard = sum(1 << (s + EXP_BITS - 1) for s in self.shifts)
        self.low_mask = self.deg_one - 1
        self.nbytes = 2 * nvars
        self.unpack = struct.Struct(f">{nvars}H").unpack  # EXP_BITS == 16
        # the x part of a key is (key >> x_shift) & x_mask, its y part key & y_mask
        self.x_shift = EXP_BITS * m
        self.x_mask = (1 << EXP_BITS * n) - 1
        self.y_mask = (1 << self.x_shift) - 1
        self.x_fields = struct.Struct(f">{n}H")
        self.y_fields = struct.Struct(f">{m}H")

    def __reduce__(self):
        # a Struct does not pickle; the unpickled polynomial gets the cached layout
        return _layout, (self.n, self.m)


def _encode(lay: _Layout, xe, ye) -> int:
    if len(xe) != lay.n or len(ye) != lay.m:
        raise ValueError(f"exponent vectors do not match ambient ({lay.n},{lay.m})")
    key = 0
    for e in (*xe, *ye):
        if not 0 <= e < EXP_LIMIT:
            raise ExponentRangeError(f"exponent {e} outside [0, {EXP_LIMIT})")
        key = key << EXP_BITS | e
    return key | (sum(xe) + sum(ye)) << lay.deg_shift


def _decode(lay: _Layout, key: int) -> Monomial:
    e = lay.unpack((key & lay.low_mask).to_bytes(lay.nbytes, "big"))
    return e[: lay.n], e[lay.n :]


def _json_list(fields: struct.Struct, part: int) -> str:
    """The exponents of one key part, as the items of a JSON list."""
    return ", ".join(map(str, fields.unpack(part.to_bytes(fields.size, "big"))))


@functools.cache
def _layout(n: int, m: int) -> _Layout:
    """The one layout of each ambient, built on first use."""
    return _Layout(n, m)


def _same_ambient(a: _Layout, b: _Layout) -> None:
    if a is not b:  # _layout caches one layout per ambient
        raise AmbientMismatch(f"ambient mismatch: ({a.n},{a.m}) vs ({b.n},{b.m})")


def _axpy(terms: dict[int, int], g: dict[int, int], c: int, shift: int = 0) -> None:
    """terms += c x^shift g on packed keys, in place, for c != 0; a cancelled key is deleted."""
    get = terms.get
    for k, v in g.items():
        k += shift
        new = get(k, 0) + c * v
        if new:
            terms[k] = new
        else:
            del terms[k]


def _add_product(lay: _Layout, terms: dict[int, int], a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """terms += a b, in place, with one _axpy per term of the shorter factor; returns terms.

    A result exponent at EXP_LIMIT raises ExponentRangeError("a product exponent reaches EXP_LIMIT").
    """
    if len(a) > len(b):
        a, b = b, a
    for k, c in a.items():
        _axpy(terms, b, c, k)
    # No field exceeds its term's degree, so the guard bits need reading
    # only when the product's top degree reaches the limit.
    ds = lay.deg_shift
    top = (max(a, default=0) >> ds) + (max(b, default=0) >> ds)
    if top >= EXP_LIMIT and any(k & lay.guard for k in terms):
        raise ExponentRangeError(f"a product exponent reaches {EXP_LIMIT}")
    return terms


def _from_keys(lay: _Layout, terms: dict[int, int]) -> "Polynomial":
    """A polynomial on packed keys; the caller guarantees nonzero coefficients."""
    out = object.__new__(Polynomial)
    out.n, out.m, out._lay, out.terms = lay.n, lay.m, lay, terms
    return out


class Remainder:
    """The kernel's one accumulator: a mutable copy of a polynomial or of a remainder."""

    __slots__ = ("_lay", "terms")

    def __init__(self, f: "Polynomial | Remainder"):
        self._lay, self.terms = f._lay, dict(f.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def lowest(self) -> tuple[Monomial, int]:
        """The first term in canonical order: lowest degree, then lex-minimal."""
        if not self.terms:
            raise ValueError("zero polynomial has no lowest term")
        k = min(self.terms)
        return _decode(self._lay, k), self.terms[k]

    def subtract(self, g: "Polynomial | Remainder", c: int) -> None:
        """Replace the remainder r by r - c g."""
        _same_ambient(self._lay, g._lay)
        if c:  # c = 0 leaves r as it is; _axpy needs c != 0
            _axpy(self.terms, g.terms, -c)

    def add_product(self, f: "Polynomial | Remainder", g: "Polynomial | Remainder") -> None:
        """Replace r by r + f g; an exponent at EXP_LIMIT raises as ``*`` does and spoils r."""
        _same_ambient(self._lay, f._lay)
        _same_ambient(self._lay, g._lay)
        _add_product(self._lay, self.terms, f.terms, g.terms)

    def polynomial(self) -> "Polynomial":
        """The remainder as a polynomial over the same dict, not a copy; r is not used after."""
        return _from_keys(self._lay, self.terms)


class Polynomial:
    __slots__ = ("n", "m", "terms", "_lay")

    def __init__(self, n: int, m: int, terms: dict[Monomial, int] | None = None):
        self.n = n
        self.m = m
        self._lay = lay = _layout(n, m)
        self.terms = {_encode(lay, xe, ye): c for (xe, ye), c in (terms or {}).items() if c != 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int, m: int = 0) -> "Polynomial":
        return _from_keys(_layout(n, m), {})

    @staticmethod
    def const(c: int, n: int, m: int = 0) -> "Polynomial":
        return _from_keys(_layout(n, m), {0: c} if c else {})

    @staticmethod
    def one(n: int, m: int = 0) -> "Polynomial":
        return Polynomial.const(1, n, m)

    @staticmethod
    def var_x(i: int, n: int, m: int = 0) -> "Polynomial":
        if not 1 <= i <= n:
            raise IndexError(f"x_{i} out of range for n={n}")
        lay = _layout(n, m)
        return _from_keys(lay, {lay.deg_one | 1 << lay.shifts[i - 1]: 1})

    @staticmethod
    def var_y(j: int, n: int, m: int) -> "Polynomial":
        if not 1 <= j <= m:
            raise IndexError(f"y_{j} out of range for m={m}")
        lay = _layout(n, m)
        return _from_keys(lay, {lay.deg_one | 1 << lay.shifts[n + j - 1]: 1})

    @staticmethod
    def monomial(xexp: Iterable[int], yexp: Iterable[int] = (), coeff: int = 1) -> "Polynomial":
        xe, ye = tuple(xexp), tuple(yexp)
        return Polynomial(len(xe), len(ye), {(xe, ye): coeff})

    # -- basics ------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.m == other.m and self.terms == other.terms

    def _plus(self, other: "Polynomial", c: int) -> "Polynomial":
        _same_ambient(self._lay, other._lay)
        terms = dict(self.terms)
        _axpy(terms, other.terms, c)
        return _from_keys(self._lay, terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        _same_ambient(self._lay, other._lay)
        return _from_keys(self._lay, _add_product(self._lay, {}, self.terms, other.terms))

    def scale(self, c: int) -> "Polynomial":
        if c == 0:
            return Polynomial.zero(self.n, self.m)
        return _from_keys(self._lay, {mon: c * k for mon, k in self.terms.items()})

    def add_times_divided_difference(self, g: "Polynomial", i: int) -> "Polynomial":
        """f + g d_i(f), in one pass over the terms of f; d_i(f) is never formed.

        Every operator f -> d_i(L f) with d_i(L) = 1 has this form, with
        g = s_i(L), by the Leibniz rule d_i(L f) = d_i(L) f + s_i(L) d_i(f).
        Only an exponent of the result at EXP_LIMIT raises ExponentRangeError.
        """
        _same_ambient(self._lay, g._lay)
        # Cancelled terms leave dead slots in the dict; the recursions
        # memoize their results, so hand back a compact copy.
        return _from_keys(self._lay, dict(self._add_divided_difference(dict(self.terms), g.terms, i)))

    def _divided_difference(self, i: int) -> "Polynomial":
        """d_i, the same loop started from zero with g = 1; no exponent grows."""
        return _from_keys(self._lay, dict(self._add_divided_difference({}, {0: 1}, i)))

    def _add_divided_difference(self, terms: dict[int, int], g: dict[int, int], i: int) -> dict[int, int]:
        """terms += g d_i(self) on packed keys, in place; returns terms.

        The fields of x_i and x_{i+1} are adjacent, so one shift and mask read
        the pair (a, b) of a term.  With lo, hi = min(a, b), max(a, b), the
        term c x_i^a x_{i+1}^b u has d_i image sign(a - b) c times the sum of
        x_i^(lo + k) x_{i+1}^(hi - 1 - k) u over k < hi - lo; that sum times g
        depends on (a, b) alone, so it is merged once per pair, as (key offset,
        coefficient) pairs, and every term of the pair adds c times it.
        """
        if not 1 <= i < self.n:
            raise IndexError(f"d_{i} out of range for n={self.n}")
        lay = self._lay
        sb = lay.shifts[i]
        ua, ub = 1 << sb + EXP_BITS, 1 << sb
        step, one, pair_mask = ua - ub, lay.deg_one, (1 << 2 * EXP_BITS) - 1
        images: dict[int, tuple[tuple[int, int], ...]] = {}
        get = terms.get
        for k, c in self.terms.items():
            pair = k >> sb & pair_mask
            image = images.get(pair)
            if image is None:
                a, b = pair >> EXP_BITS, pair & _FIELD_MASK
                lo, hi, sign = (b, a, 1) if a > b else (a, b, -1)
                first = (lo - a) * ua + (hi - 1 - b) * ub - one
                merged: dict[int, int] = {}
                for shift in range(first, first + (hi - lo) * step, step):
                    _axpy(merged, g, sign, shift)
                image = images[pair] = tuple(merged.items())
            for offset, v in image:
                mon = k + offset
                new = get(mon, 0) + c * v
                if new:
                    terms[mon] = new
                else:
                    del terms[mon]
        # No field exceeds its term's degree, so the guard bits need reading
        # only when the top degree of g d_i(self) reaches the limit.
        ds = lay.deg_shift
        top = (max(self.terms, default=0) >> ds) - 1 + (max(g, default=0) >> ds)
        if top >= EXP_LIMIT and any(k & lay.guard for k in terms):
            raise ExponentRangeError(f"an exponent of the result reaches {EXP_LIMIT}")
        return terms

    # -- degree structure --------------------------------------------------

    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no minimal degree")
        return min(self.terms) >> self._lay.deg_shift

    def lowest_degree_part(self) -> "Polynomial":
        """The sum of terms of minimal total degree."""
        bound = (self.min_degree() + 1) << self._lay.deg_shift
        return _from_keys(self._lay, {k: c for k, c in self.terms.items() if k < bound})

    def max_exponent(self) -> int:
        """The largest exponent of any variable in any term (0 for the zero polynomial)."""
        # in native byte order every field of a key is one machine unsigned short
        low, nbytes, order = self._lay.low_mask, self._lay.nbytes, sys.byteorder
        fields = array("H", b"".join([(k & low).to_bytes(nbytes, order) for k in self.terms]))
        return max(fields, default=0)

    # -- changes of variables ----------------------------------------------

    def _remap(self, out: _Layout, fn) -> "Polynomial":
        """Each term c x^xe y^ye as factor c x^xe' y^ye' in layout out, where fn(xe, ye) is
        (xe', ye', factor), or None to drop the term; images that meet are summed."""
        lay, terms = self._lay, {}
        for k, c in self.terms.items():
            if (image := fn(*_decode(lay, k))) is not None:
                xe, ye, factor = image
                mon = _encode(out, xe, ye)
                terms[mon] = terms.get(mon, 0) + c * factor
        return _from_keys(out, {k: v for k, v in terms.items() if v})

    def substitute_y(self, c: int) -> "Polynomial":
        """Replace every y_j by the integer c; result has m = 0."""
        return self._remap(_layout(self.n, 0), lambda xe, ye: (xe, (), c ** sum(ye)))

    def negate_y(self) -> "Polynomial":
        """y_j -> -y_j for all j."""
        return self._remap(self._lay, lambda xe, ye: (xe, ye, -1 if sum(ye) % 2 else 1))

    def flip(self, mcap: int) -> "Polynomial":
        """The involution r_{mcap,n}: x_1^mcap ... x_n^mcap f(x_n^-1, ..., x_1^-1).

        Requires m = 0 and per-variable x-degree at most mcap.
        """
        if self.m != 0:
            raise ValueError("flip requires a polynomial without y variables")
        _encode(self._lay, (mcap,) * self.n, ())  # mcap must itself be an exponent

        def reflect(xe, ye):
            if max(xe, default=0) > mcap:
                raise ValueError(f"per-variable degree exceeds cap {mcap}: {xe}")
            return tuple(mcap - e for e in reversed(xe)), ye, 1

        return self._remap(self._lay, reflect)

    def restrict_x(self, p: int) -> "Polynomial":
        """Set x_i = 0 for i > p and re-ambient to p x-variables (pad if p > n)."""
        out, pad = _layout(p, self.m), (0,) * max(0, p - self.n)
        return self._remap(out, lambda xe, ye: None if any(xe[p:]) else (xe[:p] + pad, ye, 1))

    def coefficient(self, xexp: Iterable[int], yexp: Iterable[int] = ()) -> int:
        ye = tuple(yexp) if yexp else (0,) * self.m
        return self.terms.get(_encode(self._lay, tuple(xexp), ye), 0)

    # -- serialization and printing ---------------------------------------

    def to_dict(self) -> dict[Monomial, int]:
        """The terms keyed by (xexp, yexp), as the constructor takes them."""
        lay = self._lay
        return {_decode(lay, k): c for k, c in self.terms.items()}

    def canonical_terms(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in canonical order: graded, then lex on (xexp, yexp), x_1 first."""
        lay, terms = self._lay, self.terms
        return ((_decode(lay, k), terms[k]) for k in sorted(terms))

    def json_chunks(self) -> Iterator[str]:
        """``to_json`` in pieces: the header, the terms in batches of JSON_BATCH, then ``]}``.

        Each distinct x part and y part of a key is written once, so a term
        costs two dict lookups and one string; no per-term dict or list is
        built, and no more than one batch of text is held at a time.
        """
        lay, terms = self._lay, self.terms
        xs, xmask, ymask = lay.x_shift, lay.x_mask, lay.y_mask
        heads: dict[int, str] = {}
        tails: dict[int, str] = {}
        keys = sorted(terms)
        yield f'{{"n": {self.n}, "m": {self.m}, "terms": ['
        for start in range(0, len(keys), JSON_BATCH):
            body = []
            for k in keys[start : start + JSON_BATCH]:
                xk, yk = k >> xs & xmask, k & ymask
                head = heads.get(xk) or heads.setdefault(
                    xk, f'{{"x": [{_json_list(lay.x_fields, xk)}], "y": [')
                tail = tails.get(yk) or tails.setdefault(
                    yk, f'{_json_list(lay.y_fields, yk)}], "c": ')
                body.append(f"{head}{tail}{terms[k]}}}")
            yield (", " if start else "") + ", ".join(body)
        yield "]}"

    def to_json(self) -> str:
        """``json.dumps`` of {"n", "m", "terms": [{"x", "y", "c"}, ...]}, terms in canonical order."""
        return "".join(self.json_chunks())

    @staticmethod
    def from_json_dict(d: dict) -> "Polynomial":
        terms = {
            (tuple(t["x"]), tuple(t["y"])): int(t["c"]) for t in d["terms"]
        }
        return Polynomial(int(d["n"]), int(d["m"]), terms)

    def _term_str(self, xe, ye, latex: bool = False) -> str:
        parts = []
        for name, exps in (("x", xe), ("y", ye)):
            for i, e in enumerate(exps, start=1):
                if e == 0:
                    continue
                if latex:
                    v = f"{name}_{{{i}}}" if i > 9 else f"{name}_{i}"
                    parts.append(v if e == 1 else f"{v}^{{{e}}}")
                else:
                    parts.append(f"{name}{i}" if e == 1 else f"{name}{i}^{e}")
        if latex:
            return " ".join(parts) if parts else "1"
        return "*".join(parts) if parts else "1"

    def to_str(self, latex: bool = False) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (xe, ye), c in self.canonical_terms():
            mono = self._term_str(xe, ye, latex)
            mag = abs(c)
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}{' ' if latex else '*'}{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Polynomial({self.n},{self.m}: {self.to_str()})"
