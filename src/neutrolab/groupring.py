"""Formal sums over a finite magma basis with coefficients mod r.

An element is the tuple of its coefficients: one residue in 0..r-1 for each
basis element, in basis order; zero is the all-zero tuple.  Multiplication
is convolution through the basis table over the nonzero terms of both
operands, and a parsed string sums its terms' coefficients in one pass.
"""

import itertools
import re

from .structures import FiniteMagma, label_is_neutro


class GroupRing:
    def __init__(self, r, basis, name=""):
        if r < 2:
            raise ValueError("coefficient modulus must be at least 2")
        if not isinstance(basis, FiniteMagma):
            raise ValueError("basis must be a finite magma")
        self.r = r
        self.basis = basis
        self.zero = (0,) * len(basis)
        self._width = len(basis)
        self.name = name or "Z%d<%s>" % (r, basis.name)

    def __len__(self):
        return self.r ** len(self.basis)

    def elements(self):
        return itertools.product(range(self.r), repeat=len(self.basis))

    def monomial(self, label, coeff=1):
        i = self.basis.idx(label)
        return self.zero[:i] + (coeff % self.r,) + self.zero[i + 1:]

    def _wrong_length(self, *xs):
        """The ValueError for the first of `xs` without one coefficient per
        basis element."""
        bad = next(x for x in xs if len(x) != self._width)
        return ValueError("%r is not an element of %s: %d coefficients for %d basis elements"
                          % (bad, self.name, len(bad), self._width))

    def add(self, x, y):
        r, n = self.r, self._width
        if len(x) != n or len(y) != n:
            raise self._wrong_length(x, y)
        return tuple([(a + b) % r for a, b in zip(x, y)])

    def neg(self, x):
        if len(x) != self._width:
            raise self._wrong_length(x)
        r = self.r
        return tuple([-a % r for a in x])

    def sub(self, x, y):
        r, n = self.r, self._width
        if len(x) != n or len(y) != n:
            raise self._wrong_length(x, y)
        return tuple([(a - b) % r for a, b in zip(x, y)])

    def mul(self, x, y):
        n = self._width
        if len(x) != n or len(y) != n:
            raise self._wrong_length(x, y)
        terms = [(j, d) for j, d in enumerate(y) if d]
        acc = [0] * n
        for c, row in zip(x, self.basis.table):
            if c:
                for j, d in terms:
                    acc[row[j]] += c * d
        r = self.r
        return tuple([v % r for v in acc])

    def scale(self, c, x):
        if len(x) != self._width:
            raise self._wrong_length(x)
        r = self.r
        return tuple([c * a % r for a in x])

    def support_labels(self, x):
        if len(x) != self._width:
            raise self._wrong_length(x)
        return tuple(label for label, c in zip(self.basis.elements, x) if c)

    def is_pure_neutro(self, x):
        """Nonzero and supported only on I-labelled basis elements."""
        labels = self.support_labels(x)
        return bool(labels) and all(map(label_is_neutro, labels))

    def has_neutro_support(self, x):
        return any(map(label_is_neutro, self.support_labels(x)))

    _TERM_RE = re.compile(r"^(\d+)?(.*)$")

    def parse(self, s):
        t = s.replace(" ", "")
        if t in ("0", ""):
            return self.zero
        index, acc = self.basis._index, [0] * self._width
        for term in t.split("+"):
            if not term:
                raise ValueError("empty term in %r" % s)
            coeff_s, label = self._TERM_RE.match(term).groups()
            # a bare coefficient is a multiple of the basis element "1"
            label = label or "1"
            i = index.get(label)
            if i is None:
                raise ValueError("unknown basis element %r in %r" % (label, s))
            acc[i] += 1 if coeff_s is None else int(coeff_s)
        r = self.r
        return tuple([v % r for v in acc])

    def format(self, x):
        if len(x) != self._width:
            raise self._wrong_length(x)
        parts = []
        for label, c in zip(self.basis.elements, x):
            if c == 1:
                parts.append(label)
            elif c:
                parts.append(str(c) if label == "1" else "%d%s" % (c, label))
        return "+".join(parts) or "0"

    def generated_ideal(self, gens):
        """Two-sided ideal generated by `gens` (see subsets.generated_ideal)."""
        from .subsets import generated_ideal
        return generated_ideal(self, gens)
