"""Polynomial oracle: the dense ``TatePoly`` and the sorted-term ``EPoly2``
as they were before both became subclasses of one sparse integer ring.

Kept unchanged, with ``tate_to_e`` and ``torus_class`` written against them,
as the reference for ``test_poly_differential.py``.
"""

from __future__ import annotations

from fractions import Fraction

from toric_ih.lattice import as_rat


class TatePoly:
    """Integer polynomial in the weight-two Tate class t.

    Immutable; supports exact ring arithmetic, coefficient truncation and the
    palindromy/unimodality predicates the structure theory guarantees.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_c", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("TatePoly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def t(cls):
        return cls((0, 1))

    @classmethod
    def monomial(cls, k, c=1):
        return cls((0,) * k + (c,))

    @property
    def coeffs(self):
        return self._c

    def coeff(self, k: int) -> int:
        return self._c[k] if 0 <= k < len(self._c) else 0

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._c) - 1

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = TatePoly((other,))
        return isinstance(other, TatePoly) and self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __add__(self, other):
        if isinstance(other, int):
            other = TatePoly((other,))
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        return TatePoly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    __radd__ = __add__

    def __neg__(self):
        return TatePoly([-x for x in self._c])

    def __sub__(self, other):
        if isinstance(other, int):
            other = TatePoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return TatePoly([other * x for x in self._c])
        out = [0] * (len(self._c) + len(other._c))
        for i, x in enumerate(self._c):
            if x:
                for j, y in enumerate(other._c):
                    out[i + j] += x * y
        return TatePoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = TatePoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, value):
        acc = 0
        for c in reversed(self._c):
            acc = acc * value + c
        return acc

    def truncate_below(self, alpha) -> "TatePoly":
        """Keep exactly the terms of degree k < alpha."""
        alpha = as_rat(alpha)
        return TatePoly([c for k, c in enumerate(self._c) if Fraction(k) < alpha])

    def is_palindromic(self, d=None) -> bool:
        d = self.degree if d is None else d
        if d < 0:
            return True
        cs = [self.coeff(k) for k in range(d + 1)]
        return cs == cs[::-1]

    def is_unimodal_to_middle(self, d=None) -> bool:
        d = self.degree if d is None else d
        cs = [self.coeff(k) for k in range(d + 1)]
        return all(cs[k] <= cs[k + 1] for k in range(len(cs) // 2))

    def __repr__(self):
        if not self._c:
            return "0"
        parts = []
        for k, c in enumerate(self._c):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


class EPoly2:
    """Integer polynomial in (u, v): Hodge-Deligne class bookkeeping.

    Immutable.  Coefficient of u^p v^q is the signed count of (p, q) pieces;
    classes of real Hodge structures arising here are symmetric under u <-> v.
    """

    __slots__ = ("_t",)

    def __init__(self, terms=()):
        acc = {}
        for (p, q), c in (terms.items() if isinstance(terms, dict) else terms):
            c = int(c)
            if c:
                acc[(int(p), int(q))] = acc.get((int(p), int(q)), 0) + c
        object.__setattr__(self, "_t", tuple(sorted((k, c) for k, c in acc.items() if c)))

    def __setattr__(self, *a):
        raise AttributeError("EPoly2 is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def lefschetz(cls):
        """The class L = uv of the weight-two Tate structure."""
        return cls({(1, 1): 1})

    @classmethod
    def monomial(cls, p, q, c=1):
        return cls({(p, q): c})

    @property
    def terms(self):
        return self._t

    def coeff(self, p, q) -> int:
        for (pp, qq), c in self._t:
            if (pp, qq) == (p, q):
                return c
        return 0

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, int):
            other = EPoly2({(0, 0): other})
        return isinstance(other, EPoly2) and self._t == other._t

    def __hash__(self):
        return hash(self._t)

    def __add__(self, other):
        if isinstance(other, int):
            other = EPoly2({(0, 0): other})
        return EPoly2(list(self._t) + list(other._t))

    __radd__ = __add__

    def __neg__(self):
        return EPoly2([(k, -c) for k, c in self._t])

    def __sub__(self, other):
        if isinstance(other, int):
            other = EPoly2({(0, 0): other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return EPoly2([(k, other * c) for k, c in self._t])
        out = {}
        for (p1, q1), c1 in self._t:
            for (p2, q2), c2 in other._t:
                k = (p1 + p2, q1 + q2)
                out[k] = out.get(k, 0) + c1 * c2
        return EPoly2(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = EPoly2.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, u, v):
        return sum(c * u ** p * v ** q for (p, q), c in self._t)

    def is_uv_symmetric(self) -> bool:
        return all(self.coeff(q, p) == c for (p, q), c in self._t)

    def __repr__(self):
        if not self._t:
            return "0"
        parts = []
        for (p, q), c in sorted(self._t, key=lambda e: (-(e[0][0] + e[0][1]), e[0])):
            mono = "".join(s for s, e in (("u", p), ("v", q)) for s in
                           ([s] if e == 1 else [f"{s}^{e}"] if e else []))
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def tate_to_e(h: TatePoly) -> EPoly2:
    """Substitute t -> uv, landing Tate classes in the two-variable ring."""
    return EPoly2({(k, k): c for k, c in enumerate(h.coeffs)})


def torus_class(d: int) -> EPoly2:
    """Class of the compactly supported cohomology of a d-torus: (uv - 1)^d."""
    if d < 0:
        raise ValueError("torus dimension must be nonnegative")
    return (EPoly2.lefschetz() - 1) ** d
