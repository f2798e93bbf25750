"""The plain-text machine file format.

    # adding machine
    alphabet 2
    state a
    perm 1 0
    on 0 -> e
    on 1 -> a
    initial a

Whitespace separated, UTF-8, # starts a comment.  A `state` block gives the
root permutation and one `on <letter> -> <target>` line per letter; `e` is
the reserved identity state and needs no block.  Each `initial <name>` line
exports the named state as a generator, so one file can carry a whole
generating set with shared states.

dump_machine writes any generators that parse back equal: a state equal
to a generator keeps its name, the other states are named q1, q2, ...,
skipping the generators' names, and a generator named `e` must be the
identity and is written only as `initial e`.  A generator name that is
empty or holds whitespace or # cannot be written and is refused.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from .core import Automorphism, _alphabet, _right_machine


class MachineParseError(ValueError):
    """A syntax or consistency error in a machine file, with its line number."""

    def __init__(self, message: str, line: int):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


def parse_machine(text: str) -> dict[str, Automorphism]:
    """Parse a machine file, returning generators in `initial` line order."""
    alphabet = None
    states: dict[str, tuple[tuple[int, ...], dict[int, str]]] = {}
    state_lines: dict[str, int] = {}
    initials: list[tuple[str, int]] = []
    current: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw = fields[0]

        if kw == "alphabet":
            if alphabet is not None:
                raise MachineParseError("duplicate alphabet line", lineno)
            try:
                (alphabet,) = map(int, fields[1:])
            except ValueError:
                raise MachineParseError("expected: alphabet <k>", lineno) from None
            if alphabet < 2:
                raise MachineParseError("alphabet needs at least two letters", lineno)
            continue

        if alphabet is None:
            raise MachineParseError("alphabet line must come first", lineno)

        if kw == "state":
            if len(fields) != 2:
                raise MachineParseError("expected: state <name>", lineno)
            name = fields[1]
            if name == "e":
                raise MachineParseError('"e" is reserved for the identity state', lineno)
            if name in states:
                raise MachineParseError("state %r declared twice" % name, lineno)
            states[name] = ((), {})
            state_lines[name] = lineno
            current = name
        elif kw == "perm":
            if current is None:
                raise MachineParseError("perm line outside a state block", lineno)
            if len(fields) != alphabet + 1:
                raise MachineParseError(
                    "expected %d letter images, got %d" % (alphabet, len(fields) - 1), lineno
                )
            try:
                perm = tuple(int(x) for x in fields[1:])
            except ValueError:
                raise MachineParseError("letter images must be integers", lineno) from None
            if sorted(perm) != list(range(alphabet)):
                raise MachineParseError("%r is not a permutation of 0..%d" % (perm, alphabet - 1), lineno)
            if states[current][0]:
                raise MachineParseError("state %r has two perm lines" % current, lineno)
            states[current] = (perm, states[current][1])
        elif kw == "on":
            if current is None:
                raise MachineParseError("on line outside a state block", lineno)
            if len(fields) != 4 or fields[2] != "->":
                raise MachineParseError("expected: on <letter> -> <state>", lineno)
            try:
                letter = int(fields[1])
            except ValueError:
                raise MachineParseError("letter must be an integer", lineno) from None
            if not 0 <= letter < alphabet:
                raise MachineParseError("letter %d out of range" % letter, lineno)
            _, targets = states[current]
            if letter in targets:
                raise MachineParseError(
                    "state %r: duplicate transition on %d" % (current, letter), lineno
                )
            targets[letter] = fields[3]
        elif kw == "initial":
            if len(fields) != 2:
                raise MachineParseError("expected: initial <name>", lineno)
            initials.append((fields[1], lineno))
            current = None
        else:
            raise MachineParseError("unknown keyword %r" % kw, lineno)

    if alphabet is None:
        raise MachineParseError("missing alphabet line", 1)
    if not initials:
        raise MachineParseError("no initial lines; nothing is exported", 1)

    table = {}
    for name, (perm, targets) in states.items():
        lineno = state_lines[name]
        if not perm:
            raise MachineParseError("state %r has no perm line" % name, lineno)
        if len(targets) != alphabet:
            missing = sorted(set(range(alphabet)) - set(targets))
            raise MachineParseError(
                "state %r is missing transitions on %s" % (name, missing), lineno
            )
        for letter, target in targets.items():
            if target != "e" and target not in states:
                raise MachineParseError(
                    "state %r: unknown target %r on %d" % (name, target, letter), lineno
                )
        table[name] = (perm, tuple(targets[x] for x in range(alphabet)))

    out = {}
    for name, lineno in initials:
        if name != "e" and name not in states:
            raise MachineParseError("initial %r names no state" % name, lineno)
        if name in out:
            raise MachineParseError("generator %r exported twice" % name, lineno)
        out[name] = Automorphism.from_states(alphabet, table, name)  # "e" is the identity
    return out


def parse_machine_file(path) -> dict[str, Automorphism]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_machine(fh.read())


def dump_machine(gens: Mapping[str, Automorphism]) -> str:
    """Serialize named generators to the file format.

    States are the distinct sections reachable from the generators; each is
    written once.  A state that equals a generator keeps that generator's
    name, the rest are named q1, q2, ... in breadth-first discovery order,
    skipping the generators' names, so the output is deterministic and
    parse_machine(dump_machine(g)) == g.  Raises ValueError for a name the
    format cannot hold (module docstring).
    """
    k = _alphabet(gens)
    for name, g in gens.items():
        if name.split() != [name] or "#" in name:
            raise ValueError("generator name %r is empty or holds whitespace or '#'" % name)
        if name == "e" and not g.is_identity():
            raise ValueError('"e" is reserved for the identity state; generator "e" is not the identity')
    # one machine for all generators, equal sections merged: state 0 is e
    perms, trans, starts = _right_machine(gens.values())
    names = {0: "e"}
    order: list[int] = []
    aliases: list[tuple[str, int]] = []
    for name, s in zip(gens, starts):
        if s not in names:
            names[s] = name
            order.append(s)
        elif name != "e":
            aliases.append((name, s))
    fresh = ("q%d" % i for i in itertools.count(1) if "q%d" % i not in gens)
    for s in order:  # the list grows while it is walked
        for t in trans[s]:
            if t not in names:
                names[t] = next(fresh)
                order.append(t)

    lines = ["alphabet %d" % k]
    for name, s in [(names[s], s) for s in order] + aliases:
        lines.append("state %s" % name)
        lines.append("perm %s" % " ".join(str(i) for i in perms[s]))
        for x, t in enumerate(trans[s]):
            lines.append("on %d -> %s" % (x, names[t]))
    for name in gens:
        lines.append("initial %s" % name)
    return "\n".join(lines) + "\n"
