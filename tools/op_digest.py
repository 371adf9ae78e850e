"""Hash what the operator algebra prints over seeded random operators, to compare two trees.

Three contexts: free (x y / u v / a) with ``Fraction`` coefficients, evolution
under integer rules and evolution under fractional rules (the lcm of their
denominators, the scale of D_t's terms, is 12).  Each seeded case draws two
2x2 operator literals A and B of orders up to 3 and vectors p, q, and records
the printed ``adjoint(A)``, ``A @ B``, ``B @ A``, ``A(p)`` and
``green_remainder(A, p, q)``.  In every other case one cell of A holds long
``D_{...}`` literals of 12-41 indices; in the others ``adjoint(A @ B)`` is
recorded too.  The SHA-256 of all records is printed.

A second hash covers prolongation-tower ranks, the ranks that lead bounds,
the complex certificate and the elimination give.  200 seeded random operators,
constant and varying, of 1-2 rows over n = 2 (u, or u and v) and n = 3 (u)
are ranked by ``cokernel_rank`` at k1 = 1..3 and by ``check_formal_exactness``
on the chain ``[op, zero]``, under the sample policy and at a drawn point with
three coordinates set to 0; errors are recorded by type and message.  Fixed
cases follow: ``u*D_{x,x} + D_x`` at u = 0, ``u_{x,x} - u, u_{x,y}``, the chain
of ``(u - 1)*D_{x,x} + D_x`` at u = 1, and de Rham (n = 2..4), Maxwell and
the p = 2, n = 5 gauge chain with gradient and wave cokernels.  Run it from
the repository root against the tree to check:

    PYTHONPATH=src python3 tools/op_digest.py [--cases 30]
"""

import argparse
import hashlib
import random
from fractions import Fraction

from cdcalc import (
    CDiffOp, JetContext, JetPoint, Metric, OperatorComplex, adjoint, check_formal_exactness,
    cokernel_rank, dbar_operator, format_operator, format_poly, green_remainder, random_point,
    star_operator,
)
from cdcalc.ops import parse_operator_matrix

TOWER_CASES = 200  # the seeded tower-rank cases, a fixed set: its hash is compared across trees


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


def tower_operator_text(rng: random.Random, ctx: JetContext, rows: int,
                        constant: bool) -> str:
    """A rows x m literal of up to two terms per cell, |sigma| <= 2; some cells 0."""
    coords = [*ctx.indep, *ctx.dep, *(f"{u}_{x}" for u in ctx.dep for x in ctx.indep)]

    def cell() -> str:
        out = []
        for _ in range(rng.randint(0, 2)):
            sigma = [rng.choice(ctx.indep) for _ in range(rng.randint(0, 2))]
            coeff = f"({Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))})" if constant \
                else poly_text(rng, coords, 2)
            out.append(coeff + ("*D_{" + ",".join(sigma) + "}" if sigma else ""))
        return " + ".join(out) or "0"

    return "\n".join(" ; ".join(cell() for _ in ctx.dep) for _ in range(rows))


def zeroed(rng: random.Random, pt: JetPoint, count: int = 3) -> JetPoint:
    """``pt`` with ``count`` of its coordinates, drawn by ``rng``, set to 0."""
    values = pt.values
    names = sorted(values, key=repr)
    return JetPoint(pt.ctx, pt.order_bound,
                    {**values, **dict.fromkeys(rng.sample(names, count), Fraction(0))})


def ranked(call) -> str:
    """What a rank call prints: its value, or its error's type and message."""
    try:
        value = call()
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, int):
        return str(value)
    return "\n".join([f"{c.position} {c.l} {c.dims} {c.ranks} {c.defect}"
                      for c in value.checks] + value.warnings)


def tower_records(op: CDiffOp, pts: list, k1_max: int, l_max: int):
    """(what, text) of the cokernels and the chain [op, zero] of ``op`` at each point."""
    chain = OperatorComplex([op, CDiffOp.zero(op.ctx, 1, op.rows)], orders=[op.order, 1])
    for p, pt in enumerate(pts):
        for k1 in range(1, k1_max + 1):
            yield f"coker {p} {k1}", ranked(lambda: cokernel_rank(op, k1, pt=pt, seed=p))
        yield f"chain {p}", ranked(lambda: check_formal_exactness(chain, l_max, pt=pt, seed=p))


def tower_cases(cases: int):
    """(name, records) of the seeded and the fixed tower-rank cases."""
    frames = [JetContext.free("x y", "u"), JetContext.free("x y", "u v"),
              JetContext.free("x y z", "u")]
    rng = random.Random("op-digest towers")
    for case in range(cases):
        ctx, constant = frames[case % 3], case % 2 == 0
        op = parse_operator_matrix(tower_operator_text(rng, ctx, rng.randint(1, 2), constant), ctx)
        pt = zeroed(rng, random_point(ctx, op.point_order(3), seed=case))
        yield f"random {case}", tower_records(op, [None, pt], 3, 2 if ctx.n == 2 else 1)
    ctx = frames[0]
    at_one = {**random_point(ctx, 4, seed=1).values}
    at_zero = JetPoint(ctx, 4, {**at_one, ctx.jet_coord("u"): Fraction(0)})
    at_one = JetPoint(ctx, 4, {**at_one, ctx.jet_coord("u"): Fraction(1)})
    for name, text, pts in (("u*Dxx + Dx", "u*D_{x,x} + D_{x}", [None, at_zero]),
                            ("uxx - u, uxy", "D_{x,x} - 1\nD_{x,y}", [None, at_one]),
                            ("(u - 1)*Dxx + Dx", "(u - 1)*D_{x,x} + D_{x}", [None, at_one])):
        yield name, tower_records(parse_operator_matrix(text, ctx), pts, 3, 2)
    for n, l_max in ((2, 3), (3, 2), (4, 1)):
        c = JetContext.free("x y z w"[:2 * n - 1], "u")
        cplx = OperatorComplex([dbar_operator(c, q) for q in range(n)])
        yield f"derham{n}", [("chain", ranked(lambda: check_formal_exactness(cplx, l_max)))]
        yield f"grad{n}", [(f"coker {k1}", ranked(lambda: cokernel_rank(dbar_operator(c, 0), k1)))
                           for k1 in (1, 2, 3)]
    for names, first, star_q, last, l_max in (("x y z w", 1, 2, 2, 2), ("a b c d e", 2, 3, 2, 1)):
        c = JetContext.free(names, "u")
        wave = dbar_operator(c, last) @ star_operator(c, Metric.diag([1] * c.n), star_q) \
            @ dbar_operator(c, first)
        cplx = OperatorComplex([wave, *(dbar_operator(c, q) for q in range(last + 1, c.n))])
        pt = random_point(c, cplx.required_point_order(l_max), seed=0)
        yield f"gauge {names}", [("chain", ranked(lambda: check_formal_exactness(cplx, l_max, pt))),
                                 ("coker", ranked(lambda: cokernel_rank(wave, 1)))]


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
    digest, records = hashlib.sha256(), 0
    for name, results in tower_cases(TOWER_CASES):
        for what, text in results:
            records += 1
            digest.update(f"{name}\0{what}\0{text}\n".encode())
    print(f"tower-ranks records {records}")
    print(f"tower-ranks sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
