"""Seeded input generation for the three workloads.

Everything here is benchmark code and imports nothing from cdcalc: it turns
``--seed`` into the texts (operator literals, polynomials, problem, complex,
forms and point files) and plain parameters that the program then parses.

The *shape* of every input (operator orders, term counts, which kinds of
coordinate a monomial holds) comes from a fixed shape stream, so the work
per item is the same on every seed.  The seed draws the rational values and
relabels independent and dependent variables, which changes the inputs but
not how much work they take.  Without this the heavy-tailed item costs make
the total time of a run depend on the seed by more than the bounds allow.
"""

from __future__ import annotations

import itertools
import pickle
import random
from fractions import Fraction
from pathlib import Path

SHAPE_STREAM = "cdcalc-perfbench-shapes-v1"

KDV_RULE = "{a}*u*u_x + {b}*u_{{x,x,x}}"
# fifth-order KdV (Lax) with seeded scalings of each term
FIFTH_RULE = ("{a}*u_{{x,x,x,x,x}} + {b}*u*u_{{x,x,x}} + {c}*u_x*u_{{x,x}}"
              " + {d}*u^2*u_x")


def shape_rng(workload: str) -> random.Random:
    return random.Random(f"{SHAPE_STREAM}:{workload}")


def value_rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def rational(rng: random.Random) -> Fraction:
    """Nonzero rational with numerator in +-1..9 and denominator in 1..4."""
    return Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))


def jet_name(dep: str, sigma, indep) -> str:
    if not sigma:
        return dep
    return dep + "_{" + ",".join(indep[i] for i in sorted(sigma)) + "}"


def multiindices(n: int, r: int):
    """Non-decreasing r-tuples from range(n), lexicographic."""
    return list(itertools.combinations_with_replacement(range(n), r))


def d_literal(sigma, indep) -> str:
    return "D_{" + ",".join(indep[i] for i in sorted(sigma)) + "}"


def signed_sum(pieces) -> str:
    """Join (coefficient, body) pairs as 'c*body + c*body - ...'."""
    out = []
    for coeff, body in pieces:
        mag = str(abs(coeff))
        text = mag if not body else (body if abs(coeff) == 1 else f"{mag}*{body}")
        if not out:
            out.append(text if coeff > 0 else "-" + text)
        else:
            out.append((" + " if coeff > 0 else " - ") + text)
    return "".join(out) or "0"


# ---------------------------------------------------------------------------
# Polynomials and operators with a fixed shape
# ---------------------------------------------------------------------------

def poly_shape(srng, n, m, max_order, max_terms, max_exp, evolution):
    """Monomial shapes: lists of (kind, slot, sigma, exponent) factors."""
    terms = []
    for _ in range(srng.randint(1, max_terms)):
        factors = []
        for _ in range(srng.randint(0, 2)):
            exp = srng.randint(1, max_exp)
            if srng.random() < 1 / 3:
                factors.append(("indep", srng.randrange(n), (), exp))
            else:
                order = srng.randint(0, max_order)
                if evolution:
                    sigma = (0,) * order
                else:
                    sigma = tuple(sorted(srng.randrange(n) for _ in range(order)))
                factors.append(("jet", srng.randrange(m), sigma, exp))
        terms.append(factors)
    return terms


def poly_terms(shape, vrng, indep, dep, perm_x, perm_u):
    """Instantiate a shape: list of (Fraction, [(coordinate name, exp)])."""
    terms = []
    for factors in shape:
        named = []
        for kind, slot, sigma, exp in factors:
            if kind == "indep":
                named.append((indep[perm_x[slot]], exp))
            else:
                named.append((jet_name(dep[perm_u[slot]],
                                       [perm_x[i] for i in sigma], indep), exp))
        terms.append((rational(vrng), named))
    return terms


def poly_text(terms) -> str:
    pieces = []
    for coeff, named in terms:
        body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in named)
        pieces.append((coeff, body))
    return signed_sum(pieces)


def operator_shape(srng, n, m, rows, cols, max_op_order, evolution):
    shape = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            entry = []
            for _ in range(srng.randint(1, 2)):
                order = srng.randint(0, max_op_order)
                sigma = tuple(sorted(srng.randrange(n) for _ in range(order)))
                entry.append((sigma, poly_shape(srng, n, m, 1, 2, 1, evolution)))
            row.append(entry)
        shape.append(row)
    return shape


def operator_text(shape, vrng, indep, dep, perm_x, perm_u) -> str:
    lines = []
    for row in shape:
        cells = []
        for entry in row:
            parts = []
            for sigma, pshape in entry:
                coeff = poly_text(poly_terms(pshape, vrng, indep, dep, perm_x, perm_u))
                lit = d_literal([perm_x[i] for i in sigma], indep) if sigma else ""
                parts.append(f"({coeff})*{lit}" if lit else f"({coeff})")
            cells.append(" + ".join(parts))
        lines.append(" ; ".join(cells))
    return "\n".join(lines)


def _perm(vrng, k):
    perm = list(range(k))
    vrng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# symbolic: operator pairs, Green triples, evolution-mode pairs
# ---------------------------------------------------------------------------

SYMBOLIC_COUNTS = {"free": 117, "green": 58, "kdv": 20, "fifth": 4}
GREEN_PER_ITEM = 2  # Green triples are small; two make one item


def symbolic_spec(seed: int) -> dict:
    srng, vrng = shape_rng("symbolic"), value_rng("symbolic", seed)
    rules = {
        "kdv": KDV_RULE.format(a=rational(vrng), b=rational(vrng)),
        "fifth": FIFTH_RULE.format(a=rational(vrng), b=rational(vrng),
                                   c=rational(vrng), d=rational(vrng)),
    }
    items = []

    def free_pair(item_id):
        indep, dep = ("x", "t"), ("u",)
        perm_x = _perm(vrng, 2)
        texts = [operator_text(operator_shape(srng, 2, 1, 2, 2, 3, False),
                               vrng, indep, dep, perm_x, [0]) for _ in range(2)]
        return {"id": item_id, "kind": "free", "indep": indep, "dep": dep,
                "a": texts[0], "b": texts[1]}

    warmup = free_pair("warmup")
    for k in range(SYMBOLIC_COUNTS["free"]):
        items.append(free_pair(f"free-{k:02d}"))
    for k in range(SYMBOLIC_COUNTS["green"]):
        indep, dep = ("x", "y", "z"), ("u", "v")
        triples = []
        for _ in range(GREEN_PER_ITEM):
            perm_x, perm_u = _perm(vrng, 3), _perm(vrng, 2)
            op = operator_text(operator_shape(srng, 3, 2, 2, 2, 3, False),
                               vrng, indep, dep, perm_x, perm_u)
            vecs = [poly_text(poly_terms(poly_shape(srng, 3, 2, 2, 3, 2, False),
                                         vrng, indep, dep, perm_x, perm_u))
                    for _ in range(4)]
            triples.append({"op": op, "p": vecs[:2], "q": vecs[2:]})
        items.append({"id": f"green-{k:02d}", "kind": "green", "indep": indep,
                      "dep": dep, "triples": triples})
    for rule in ("kdv", "fifth"):
        for k in range(SYMBOLIC_COUNTS[rule]):
            indep, dep = ("x", "t"), ("u",)
            texts = [operator_text(operator_shape(srng, 2, 1, 2, 2, 2, True),
                                   vrng, indep, dep, [0, 1], [0])
                     for _ in range(2)]
            vec = [poly_text(poly_terms(poly_shape(srng, 2, 1, 2, 3, 2, True),
                                        vrng, indep, dep, [0, 1], [0]))
                   for _ in range(2)]
            items.append({"id": f"{rule}-{k:02d}", "kind": "evolution",
                          "rule": rules[rule], "a": texts[0], "b": texts[1],
                          "v": vec})
    return {"warmup": warmup, "items": items}


# ---------------------------------------------------------------------------
# exactness: fixed chains, seeded points and policy seeds
# ---------------------------------------------------------------------------

# The items form a ladder of sizes from tens of milliseconds to seconds, most
# of them repeated at other points or policy seeds.  The machine this was
# sized on drifts between a fast state and one about 1.6x slower over seconds
# to minutes; many items of unlike sizes keep item_p50_ms from hanging on a
# few items or jumping between the two states.  Calls shorter than ~30 ms are
# bundled so that timer noise does not dominate an item.
# (item id, calls, copies); a call is (chain or operator, call, level,
# explicit point?)
EXACTNESS_ITEMS = (
    ("coker-grad2", (("grad2", "coker", 6, False), ("grad2", "coker", 8, False)), 5),
    ("coker-grad3", (("grad3", "coker", 3, False), ("grad3", "coker", 4, False)), 3),
    ("coker-kdv", (("kdv", "coker", 6, False), ("kdv", "coker", 4, True)), 5),
    ("coker-wave-euclid-1", (("wave-euclid", "coker", 1, False),), 5),
    ("coker-wave-lorentz-2", (("wave-lorentz", "coker", 2, True),), 5),
    ("coker-wave-euclid-2", (("wave-euclid", "coker", 2, False),), 2),
    ("broken2-policy-4", (("broken2", "exact", 4, False),), 5),
    ("broken2-policy-6", (("broken2", "exact", 6, False),), 3),
    ("broken2-point-8", (("broken2", "exact", 8, True),), 3),
    ("broken2-point-10", (("broken2", "exact", 10, True),), 2),
    ("derham2-policy-6", (("derham2", "exact", 6, False),), 3),
    ("derham2-point-8", (("derham2", "exact", 8, True),), 5),
    ("derham2-policy-8", (("derham2", "exact", 8, False),), 2),
    ("derham2-point-10", (("derham2", "exact", 10, True),), 2),
    ("derham3-point-2", (("derham3", "exact", 2, True),), 7),
    ("derham3-policy-2", (("derham3", "exact", 2, False),), 3),
    ("derham3-point-3", (("derham3", "exact", 3, True),), 5),
    ("derham4-point-1", (("derham4", "exact", 1, True),), 5),
    ("derham4-policy-1", (("derham4", "exact", 1, False),), 2),
    ("maxwell-euclid-point-1", (("maxwell-euclid", "exact", 1, True),), 7),
    ("maxwell-lorentz-point-1", (("maxwell-lorentz", "exact", 1, True),), 7),
    ("maxwell-euclid-policy-1", (("maxwell-euclid", "exact", 1, False),), 3),
    ("maxwell-lorentz-policy-1", (("maxwell-lorentz", "exact", 1, False),), 3),
    ("maxwell-euclid-point-2", (("maxwell-euclid", "exact", 2, True),), 2),
    ("maxwell-lorentz-point-2", (("maxwell-lorentz", "exact", 2, True),), 2),
    ("gauge-p2n5-point-0", (("gauge-p2n5", "exact", 0, True),), 3),
    ("gauge-p2n5-point-1", (("gauge-p2n5", "exact", 1, True),), 1),
)


def exactness_spec(seed: int) -> dict:
    vrng = value_rng("exactness", seed)

    def calls(entries):
        return [{"target": target, "call": call, "level": level, "point": point,
                 "seed": vrng.randrange(10 ** 6)}
                for target, call, level, point in entries]

    items = [{"id": f"{item_id}-{k}", "calls": calls(entries)}
             for item_id, entries, copies in EXACTNESS_ITEMS for k in range(copies)]
    warmup = {"id": "warmup", "calls": calls([("derham2", "exact", 3, False)])}
    return {"warmup": warmup, "items": items}


# ---------------------------------------------------------------------------
# cli: generated files and a fixed list of argument vectors
# ---------------------------------------------------------------------------

SL2_FORM = (("0", "-(lam + u)"), ("1/6", "0"),
            ("-1/6*u_x", "-u_{x,x} - 1/3*u^2 + 1/3*lam*u + 2/3*lam^2"),
            ("1/18*u - 1/9*lam", "1/6*u_x"))

# leading term of each generated single equation: (indep, sigma)
CLI_PROBLEMS = (("x t", (0, 1)), ("x t", (0, 0, 0)), ("x y z", (2,)),
                ("x y z", (0, 1)))


def _equation(srng, vrng, indep, lead):
    """A single equation c*u_lead + (terms of lower jet order), structured."""
    n = len(indep)
    low = max(len(lead) - 1, 0)
    shape = poly_shape(srng, n, 1, low, 3, 2, False)
    terms = [(rational(vrng), [(jet_name("u", lead, indep), 1)])]
    terms += poly_terms(shape, vrng, indep, ("u",), list(range(n)), [0])
    return terms


def _conjugated_sl2(vrng) -> str:
    """The sl2 KdV connection conjugated by a constant g in SL2(Q)."""
    while True:
        g = [[rational(vrng), rational(vrng)], [rational(vrng), rational(vrng)]]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if det:
            break
    ginv = [[g[1][1] / det, -g[0][1] / det], [-g[1][0] / det, g[0][0] / det]]
    lines = ["# sl2 KdV connection conjugated by a constant matrix"]
    for name, (r0, r1) in (("x", (SL2_FORM[0], SL2_FORM[1])),
                           ("t", (SL2_FORM[2], SL2_FORM[3]))):
        mat = [r0, r1]
        lines.append(f"A {name}")
        for i in range(2):
            cells = []
            for j in range(2):
                parts = [f"({g[i][k] * ginv[l][j]})*({mat[k][l]})"
                         for k in range(2) for l in range(2)
                         if mat[k][l] != "0"]
                cells.append(" + ".join(parts))
            lines.append(" ; ".join(cells))
    return "\n".join(lines) + "\n"


def _scaled_derham(vrng, indep) -> tuple[str, list]:
    """de Rham chain d0, d1 with d0 rows scaled by c and d1 columns by 1/c."""
    n = len(indep)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    scale = [rational(vrng) for _ in range(n)]
    lines = [f"independent {' '.join(indep)}", "dependent u",
             f"operator 1 -> {n} order 1"]
    for i in range(n):
        lines.append(f"{scale[i]}*D_{{{indep[i]}}}")
    lines.append(f"operator {n} -> {len(pairs)} order 1")
    for i, j in pairs:
        cells = ["0"] * n
        cells[j] = f"{1 / scale[j]}*D_{{{indep[i]}}}"
        cells[i] = f"{-1 / scale[i]}*D_{{{indep[j]}}}"
        lines.append(" ; ".join(cells))
    return "\n".join(lines) + "\n", [1, n, len(pairs)]


def _point_file(vrng, indep, order) -> str:
    lines = [f"{name} = {rational(vrng)}" for name in indep]
    for r in range(order + 1):
        for sigma in multiindices(len(indep), r):
            lines.append(f"{jet_name('u', sigma, indep)} = {rational(vrng)}")
    return "\n".join(lines) + "\n"


def cli_spec(seed: int) -> dict:
    """Files to write (name -> text) and the argument vectors, in order.

    Each call records what its check needs under ``expect``.
    """
    srng, vrng = shape_rng("cli"), value_rng("cli", seed)
    files: dict[str, str] = {}
    calls: list[dict] = []

    def call(argv, expect, **extra):
        calls.append({"id": f"{len(calls):03d}-{argv[0]}", "argv": argv,
                      "expect": expect, **extra})

    kdv, sl2, derham = "@demos/kdv.prob", "@demos/kdv_sl2.forms", "@demos/derham2.cplx"
    for fmt in ((), ("--json",)):
        call(["linearize", kdv, *fmt], "kdv-linearization")
        call(["adjoint", kdv, *fmt], "kdv-adjoint")
        call(["zcr", kdv, "--forms", sl2, *fmt], "zero-residual")
        call(["exactness", derham, "--l-max", "2", "--seed",
              str(vrng.randrange(100)), *fmt], "exact", ranks=[1, 2, 1])
        call(["coker", kdv, "--k1", "1", "--seed", str(vrng.randrange(100)), *fmt],
             "coker-zero")

    for p, (indep_text, lead) in enumerate(CLI_PROBLEMS):
        indep = indep_text.split()
        terms = _equation(srng, vrng, indep, lead)
        name = f"problem{p}.prob"
        files[name] = (f"# generated single equation\nindependent {indep_text}\n"
                       f"dependent u\nequation {poly_text(terms)}\n")
        files[f"point{p}.pt"] = _point_file(vrng, indep, 6)
        info = {"indep": indep, "terms": terms, "order": len(lead)}
        path, point = "@" + name, "@" + f"point{p}.pt"
        for fmt in ((), ("--json",)):
            call(["linearize", path, *fmt], "linearization", problem=info)
            call(["adjoint", path, *fmt], "adjoint", problem=info)
            call(["coker", path, "--k1", "1", *fmt], "coker-zero")
        call(["symbol", path, "--seed", str(vrng.randrange(100))], "symbol",
             problem=info)
        call(["symbol", path, "--point", point, "--json"], "symbol", problem=info)
        call(["spencer", path, "--l-max", "2", "--seed", str(vrng.randrange(100))],
             "spencer-zero")
        call(["spencer", path, "--l-max", "2", "--point", point, "--json"],
             "spencer-zero")
        call(["involutive", path, "--l-max", "2"], "involutive")

    a, b = rational(vrng), rational(vrng)
    files["pair.prob"] = ("# u_xx = u_tt = 0 up to scaling\nindependent x t\n"
                          f"dependent u\nequation {a}*u_{{x,x}}\n"
                          f"equation {b}*u_{{t,t}}\n")
    for fmt in ((), ("--json",)):
        call(["spencer", "@pair.prob", "--l-max", "2", *fmt], "spencer-pair")
        call(["involutive", "@pair.prob", "--l-max", "2", *fmt], "involutive-pair")

    for c, indep in enumerate((("x", "t"), ("x", "y", "z"))):
        text, ranks = _scaled_derham(vrng, indep)
        files[f"derham{c}.cplx"] = "# scaled de Rham chain\n" + text
        files[f"derham{c}.pt"] = _point_file(vrng, list(indep), 4)
        path = f"@derham{c}.cplx"
        l_max = str(3 - len(indep))  # keeps the n = 3 fibers tiny
        call(["exactness", path, "--l-max", l_max, "--seed", str(vrng.randrange(100))],
             "exact", ranks=ranks)
        call(["exactness", path, "--l-max", l_max, "--seed", str(vrng.randrange(100)),
              "--json"], "exact", ranks=ranks)
        call(["exactness", path, "--l-max", "1", "--point", f"@derham{c}.pt"],
             "exact", ranks=ranks)

    for f in range(2):
        files[f"sl2_{f}.forms"] = _conjugated_sl2(vrng)
        for fmt in ((), ("--json",)):
            call(["zcr", kdv, "--forms", f"@sl2_{f}.forms", *fmt], "zero-residual")

    for k in range(6):
        kk, n = 2 + k % 3, 2 + vrng.randrange(6)
        call(["kline", "--k", str(kk), "--n", str(n), *(("--json",) if k % 2 else ())],
             "kline", k=kk, n=n)

    call(["two-line", "--k", "1", "--p", str(2 + vrng.randrange(3)), "--sign", "-"],
         "two-line")
    for k in range(7):
        kk, pp = 2 + k % 4, 2 + vrng.randrange(3)
        sign = vrng.choice("+-")
        call(["two-line", "--k", str(kk), "--p", str(pp), "--sign", sign,
              *(("--json",) if k % 2 else ())], "two-line")

    for k in range(8):
        n = 3 + k % 3
        p = 1 + vrng.randrange(n - 2)
        metric = [1] * n if k % 2 == 0 else [-1] + [1] * (n - 1)
        while True:
            xi = [vrng.randint(-3, 3) for _ in range(n)]
            if sum(g * x * x for g, x in zip(metric, xi)) != 0:
                break
        # "--xi=..." because argparse takes "--xi -1,2" for a missing value
        call(["pform-epi", "--n", str(n), "--p", str(p), "--metric",
              "diag(" + ",".join(map(str, metric)) + ")",
              "--xi=" + ",".join(map(str, xi)), *(("--json",) if k % 2 else ())],
             "pform-epi", n=n, p=p)

    for n, p in ((4, 1), (6, 3), (8, 4)):
        for fmt in ((), ("--json",)):
            call(["pform-table", "--n", str(n), "--p", str(p), *fmt], "pform-table",
                 n=n, p=p)

    # malformed input: 5000 nested unary minus signs must end in exit code 1
    files["malformed.prob"] = ("independent x t\ndependent u\nequation "
                               + "-" * 5000 + "u_x\n")
    call(["linearize", "@malformed.prob"], "error")
    return {"files": files, "calls": calls}


SPECS = {"symbolic": symbolic_spec, "exactness": exactness_spec, "cli": cli_spec}
SPEC_FILE = "spec.pickle"


def write_inputs(workload: str, seed: int, work: Path) -> None:
    """Generate a workload's inputs into ``work``: the spec, and the files of cli."""
    spec = SPECS[workload](seed)
    work.mkdir(parents=True, exist_ok=True)
    for name, text in spec.get("files", {}).items():
        (work / name).write_text(text)
    (work / SPEC_FILE).write_bytes(pickle.dumps(spec))


def read_spec(work: Path) -> dict:
    return pickle.loads((work / SPEC_FILE).read_bytes())
