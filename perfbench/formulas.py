"""Conjunctions of linear integer atoms in the package's text syntax, read and
evaluated without the package.

The count workload feeds the package formulas printed here and checks its
counts against `brute_force_count`, which enumerates a box around every
fiber point by point.  Nothing in this file calls into padicmeasure, so a
fault in the package's parser, simplifier or counting cannot hide itself.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

_ATOM = re.compile(r"^([-+*\w ]+?)\s*(>=|=)\s*0$")


@dataclass(frozen=True)
class LinearAtom:
    """sum(coeffs) + const >= 0, = 0, or modulus | sum(coeffs) + const."""

    kind: str  # "ge", "eq" or "div"
    coeffs: tuple[tuple[str, int], ...]
    const: int
    modulus: int = 0

    def value(self, env) -> int:
        return self.const + sum(c * env[v] for v, c in self.coeffs)

    def holds(self, env) -> bool:
        v = self.value(env)
        if self.kind == "ge":
            return v >= 0
        if self.kind == "eq":
            return v == 0
        return v % self.modulus == 0


def parse_term(text: str) -> tuple[dict[str, int], int]:
    body = text.replace(" ", "")
    if not body:
        raise ValueError("empty term")
    if body[0] not in "+-":
        body = "+" + body
    coeffs: dict[str, int] = {}
    const = 0
    for piece in re.findall(r"[+-][^+-]+", body):
        sign = -1 if piece[0] == "-" else 1
        item = piece[1:]
        if "*" in item:
            k, name = item.split("*")
            coeffs[name] = coeffs.get(name, 0) + sign * int(k)
        elif item[0].isalpha():
            coeffs[item] = coeffs.get(item, 0) + sign
        else:
            const += sign * int(item)
    return {v: c for v, c in coeffs.items() if c}, const


def parse_conjunction(text: str) -> list[LinearAtom]:
    """Atoms of `a /\\ b /\\ ...` as the package prints them (`t >= 0`,
    `t = 0`, `m | t`); raises ValueError on anything else."""
    atoms = []
    for part in text.split("/\\"):
        part = part.strip()
        if "|" in part:
            modulus, term = part.split("|", 1)
            coeffs, const = parse_term(term)
            atoms.append(LinearAtom("div", tuple(sorted(coeffs.items())), const,
                                    int(modulus)))
            continue
        match = _ATOM.match(part)
        if match is None:
            raise ValueError(f"not an atom of a conjunction: {part!r}")
        term, op = match.groups()
        coeffs, const = parse_term(term)
        atoms.append(LinearAtom("ge" if op == ">=" else "eq",
                                tuple(sorted(coeffs.items())), const))
    return atoms


def format_term(coeffs, const: int) -> str:
    parts = []
    for name, c in coeffs:
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        parts.append(("-" if c < 0 else "+", body))
    if const or not parts:
        parts.append(("-" if const < 0 else "+", str(abs(const))))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def format_conjunction(atoms) -> str:
    texts = []
    for a in atoms:
        term = format_term(a.coeffs, a.const)
        if a.kind == "div":
            texts.append(f"{a.modulus} | {term}")
        else:
            texts.append(f"{term} {'>=' if a.kind == 'ge' else '='} 0")
    return " /\\ ".join(texts)


def shift(atoms, offsets: dict[str, int]) -> list[LinearAtom]:
    """Substitute v -> v + offsets[v]; the count of each fiber is unchanged."""
    out = []
    for a in atoms:
        const = a.const + sum(c * offsets.get(v, 0) for v, c in a.coeffs)
        out.append(LinearAtom(a.kind, a.coeffs, const, a.modulus))
    return out


def bounding_box(atoms, variables, point) -> dict[str, tuple[int, int]]:
    """Integer bounds on each variable implied by the >= and = atoms once the
    parameters are fixed at `point`, by interval propagation."""
    lo = {v: None for v in variables}
    hi = {v: None for v in variables}
    halves = []
    for a in atoms:
        if a.kind == "ge":
            halves.append((a.coeffs, a.const))
        elif a.kind == "eq":
            halves.append((a.coeffs, a.const))
            halves.append((tuple((v, -c) for v, c in a.coeffs), -a.const))
    for _ in range(2 * len(variables) + 2):
        for coeffs, const in halves:
            for var, cv in coeffs:
                if var not in lo:
                    continue
                # cv*var >= -(const + rest); bound rest from above
                rest_max = const
                for v, c in coeffs:
                    if v == var:
                        continue
                    if v in point:
                        rest_max += c * point[v]
                        continue
                    bound = hi[v] if c > 0 else lo[v]
                    if bound is None:
                        rest_max = None
                        break
                    rest_max += c * bound
                if rest_max is None:
                    continue
                if cv > 0:
                    new = -(rest_max // cv)  # ceil(-rest_max / cv)
                    if lo[var] is None or new > lo[var]:
                        lo[var] = new
                else:
                    new = rest_max // (-cv)
                    if hi[var] is None or new < hi[var]:
                        hi[var] = new
    for v in variables:
        if lo[v] is None or hi[v] is None:
            raise ValueError(f"no finite box for {v} at {point}")
    return {v: (lo[v], hi[v]) for v in variables}


def brute_force_count(atoms, variables, point) -> int:
    """Number of integer points of the fiber over `point`, one at a time."""
    box = bounding_box(atoms, variables, point)
    env = dict(point)
    total = 0
    ranges = [range(box[v][0], box[v][1] + 1) for v in variables]
    for values in itertools.product(*ranges):
        env.update(zip(variables, values))
        if all(a.holds(env) for a in atoms):
            total += 1
    return total
