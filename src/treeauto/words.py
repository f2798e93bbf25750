"""Words in a free group on named generators.

A word is a tuple of (generator, sign) letters with sign +1 or -1, kept
freely reduced at all times.  Reduction happens in the constructor, so any
two Word values describing the same reduced word compare equal with plain
tuple equality.  Everything here is pure string/tuple manipulation; no
automorphism machinery is involved.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

Letter = Tuple[str, int]


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for name, sign in letters:
        if sign not in (1, -1):
            raise ValueError("letter sign must be +1 or -1, got %r" % (sign,))
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


class Word:
    """A freely reduced word.  Immutable; supports *, ~, ** and slicing."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        self.letters: tuple[Letter, ...] = _reduce(letters)

    @classmethod
    def generator(cls, name: str, sign: int = 1) -> "Word":
        return cls(((name, sign),))

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse a word like "a b^-1 a^2".

        Tokens are whitespace separated.  A token is a generator name
        optionally followed by ^ and a nonzero integer exponent.
        """
        letters: list[Letter] = []
        for tok in text.split():
            if "^" in tok:
                name, _, exp_text = tok.partition("^")
                try:
                    exp = int(exp_text)
                except ValueError:
                    exp = 0  # refused below, like a zero exponent
                if not exp:
                    raise ValueError("bad exponent in token %r" % tok)
            else:
                name, exp = tok, 1
            if not name:
                raise ValueError("bad token %r" % tok)
            sign = 1 if exp > 0 else -1
            letters.extend([(name, sign)] * abs(exp))
        return cls(letters)

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return " ".join(n if s > 0 else n + "^-1" for n, s in self.letters)

    def __repr__(self) -> str:
        return "Word(%r)" % (str(self),)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((n, -s) for n, s in reversed(self.letters)))

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n)

    def is_cyclically_reduced(self) -> bool:
        ls = self.letters
        if len(ls) < 2:
            return True
        return not (ls[0][0] == ls[-1][0] and ls[0][1] == -ls[-1][1])

    def cyclic_reduction(self) -> tuple["Word", "Word"]:
        """Split self = c * core * c^-1 with core cyclically reduced."""
        ls = self.letters
        i, j = 0, len(ls)
        while j - i >= 2 and ls[i][0] == ls[j - 1][0] and ls[i][1] == -ls[j - 1][1]:
            i += 1
            j -= 1
        return Word(ls[:i]), Word(ls[i:j])

    def primitive_root(self) -> tuple["Word", int]:
        """Write self = root**n with root primitive and n >= 1.

        In a free group every nontrivial element is a positive power of a
        unique primitive element, so the result is canonical.  Raises on
        the identity word, which is a power of everything.
        """
        if not self.letters:
            raise ValueError("the identity word has no primitive root")
        conj, core = self.cyclic_reduction()
        m = len(core.letters)
        for p in range(1, m + 1):
            if m % p == 0 and core.letters[:p] * (m // p) == core.letters:
                root = conj * Word(core.letters[:p]) * conj.inverse()
                return root, m // p
        raise AssertionError("unreachable: every word is its own power")


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()
