"""Formal sums over a finite magma basis with coefficients mod r.

An element is a canonical tuple of (basis_index, coeff) pairs, sorted by
basis index, with zero coefficients dropped; the empty tuple is zero.
Multiplication is convolution through the basis table.
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
        self.zero = ()
        self.name = name or "Z%d<%s>" % (r, basis.name)
        self.meta = {"kind": "group_ring", "r": r, "basis": dict(basis.meta)}

    def __len__(self):
        return self.r ** len(self.basis)

    def elements(self):
        idxs = range(len(self.basis))
        for coeffs in itertools.product(range(self.r), repeat=len(self.basis)):
            yield tuple((i, c) for i, c in zip(idxs, coeffs) if c)

    def monomial(self, label, coeff=1):
        c = coeff % self.r
        return ((self.basis.idx(label), c),) if c else ()

    def add(self, x, y):
        acc = dict(x)
        for i, c in y:
            v = (acc.get(i, 0) + c) % self.r
            if v:
                acc[i] = v
            else:
                acc.pop(i, None)
        return tuple(sorted(acc.items()))

    def neg(self, x):
        return tuple((i, -c % self.r) for i, c in x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        table = self.basis.table
        acc = {}
        for i, c in x:
            row = table[i]
            for j, d in y:
                k = row[j]
                v = (acc.get(k, 0) + c * d) % self.r
                if v:
                    acc[k] = v
                else:
                    acc.pop(k, None)
        return tuple(sorted(acc.items()))

    def scale(self, c, x):
        c %= self.r
        out = []
        for i, v in x:
            w = c * v % self.r
            if w:
                out.append((i, w))
        return tuple(out)

    def support_labels(self, x):
        return tuple(self.basis.elements[i] for i, _ in x)

    def is_pure_neutro(self, x):
        """Nonzero and supported only on I-labelled basis elements."""
        return bool(x) and all(label_is_neutro(self.basis.elements[i]) for i, _ in x)

    def has_neutro_support(self, x):
        return any(label_is_neutro(self.basis.elements[i]) for i, _ in x)

    _TERM_RE = re.compile(r"^(\d+)?(.*)$")

    def parse(self, s):
        t = s.replace(" ", "")
        if t in ("0", ""):
            return ()
        acc = ()
        for term in t.split("+"):
            m = self._TERM_RE.match(term)
            coeff_s, rest = m.groups()
            coeff = int(coeff_s) if coeff_s is not None else 1
            if rest == "":
                label = "1"
            else:
                label = rest
            if label not in self.basis._index:
                raise ValueError("unknown basis element %r in %r" % (label, s))
            acc = self.add(acc, self.monomial(label, coeff))
        return acc

    def format(self, x):
        if not x:
            return "0"
        parts = []
        for i, c in x:
            label = self.basis.elements[i]
            if c == 1:
                parts.append(label)
            elif label == "1":
                parts.append(str(c))
            else:
                parts.append("%d%s" % (c, label))
        return "+".join(parts)

    def generated_ideal(self, gens):
        """Two-sided ideal generated by `gens` (see subsets.generated_ideal)."""
        from .subsets import generated_ideal
        return generated_ideal(self, gens)


def group_ring(r, basis, name=""):
    return GroupRing(r, basis, name=name)
