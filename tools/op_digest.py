"""Hash what the operator algebra prints over seeded random operators, to compare two trees.

Three contexts: free (x y / u v / a) with ``Fraction`` coefficients, evolution
under integer rules and evolution under fractional rules (the lcm of their
denominators, the scale of D_t's terms, is 12).  Each seeded case draws two
2x2 operator literals A and B of orders up to 3 and vectors p, q, and records
the printed ``adjoint(A)``, ``A @ B``, ``B @ A``, ``A(p)`` and
``green_remainder(A, p, q)``.  In every other case one cell of A holds long
``D_{...}`` literals of 12-41 indices; in the others ``adjoint(A @ B)`` is
recorded too.  The SHA-256 of all records is printed.  Run it
from the repository root against the tree to check:

    PYTHONPATH=src python3 tools/op_digest.py [--cases 30]
"""

import argparse
import hashlib
import random
from fractions import Fraction

from cdcalc import JetContext, adjoint, format_operator, format_poly, green_remainder
from cdcalc.ops import parse_operator_matrix


def contexts():
    """(name, context, coordinate names a coefficient may hold)."""
    free = JetContext.free("x y", "u v", ("a",))
    internal = ["x", "t", "u", "v", "u_x", "v_x", "u_{x,x}", "v_{x,x}", "u_{x,x,x}"]
    return (
        ("free", free, ["x", "y", "a", "u", "v", "u_x", "u_y", "v_x", "u_{x,y}", "v_{y,y}"]),
        ("integer", JetContext.evolution("u v", ["u*u_x + u_{x,x,x}", "v*u_x - 2*v_{x,x}"]),
         internal),
        ("fractional", JetContext.evolution(
            "u v", ["1/4*u*v_x - 3/2*u_{x,x,x}", "2/3*v^2 - 5/6*u_{x,x}"]), internal),
    )


def poly_text(rng: random.Random, coords: list, terms: int = 3) -> str:
    """A sum of up to ``terms`` monomials of degree at most 2 with Fraction coefficients."""
    out = []
    for _ in range(rng.randint(1, terms)):
        coeff = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
        factors = [f"({coeff})"] + rng.sample(coords, rng.randint(0, 2))
        out.append("*".join(factors))
    return "(" + " + ".join(out) + ")"


def entry_text(rng: random.Random, ctx: JetContext, coords: list, long: bool) -> str:
    """One operator cell: up to three terms ``coefficient*D_{...}``."""
    names = ctx.indep
    out = []
    for _ in range(rng.randint(1, 3)):
        if long:  # x, and at most once the other direction
            sigma = [names[0]] * rng.randint(12, 40) + [names[1]] * rng.randint(0, 1)
            coeff = poly_text(rng, coords[:5], 1)
        else:
            sigma = [rng.choice(names) for _ in range(rng.randint(0, 3))]
            coeff = poly_text(rng, coords)
        out.append(coeff + ("*D_{" + ",".join(sigma) + "}" if sigma else ""))
    return " + ".join(out)


def operator_text(rng: random.Random, ctx: JetContext, coords: list, long: int = -1) -> str:
    """A 2x2 operator literal whose cell number ``long`` (0-3, row-major) has long D-literals."""
    return "\n".join(" ; ".join(entry_text(rng, ctx, coords, 2 * r + c == long)
                                for c in range(2)) for r in range(2))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=30)
    args = parser.parse_args()
    digest, records = hashlib.sha256(), 0
    for name, ctx, coords in contexts():
        rng = random.Random(f"op-digest {name}")
        for case in range(args.cases):
            long = case // 2 % 4 if case % 2 == 0 else -1
            a = parse_operator_matrix(operator_text(rng, ctx, coords, long), ctx)
            b = parse_operator_matrix(operator_text(rng, ctx, coords), ctx)
            p = [ctx.parse(poly_text(rng, coords)) for _ in range(2)]
            q = [ctx.parse(poly_text(rng, coords)) for _ in range(2)]
            ab = a @ b
            results = [
                ("adjoint", format_operator(adjoint(a))),
                ("compose", format_operator(ab)),
                ("compose-after", format_operator(b @ a)),
                ("apply", "\n".join(format_poly(f, ctx) for f in a(p))),
                ("green", "\n".join(format_poly(r, ctx) for r in green_remainder(a, p, q))),
            ]
            if long < 0:  # with a long literal the adjoint of A @ B takes seconds
                results.append(("adjoint-compose", format_operator(adjoint(ab))))
            for what, text in results:
                records += 1
                digest.update(f"{name}\0{case}\0{what}\0{text}\n".encode())
    print(f"records {records}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
