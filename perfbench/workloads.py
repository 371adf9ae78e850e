"""The three workloads: build inputs, run items, check outputs.

Each workload has three steps.

* ``build(spec, paths)`` parses the generated texts and builds the operators
  and complexes through cdcalc.  This is the set-up a user pays before the
  first result, and is what ``setup_s`` times in a fresh interpreter.
* ``run(item)`` is one timed item; it returns the program's outputs.
* ``check(built, outputs, rng)`` runs after the timed list and compares the
  outputs with identities the method must satisfy, closed forms and sympy
  (see ``oracles.py``).  It returns a list of failure messages.

cdcalc functions are always reached through their module attribute at call
time (``cdcalc.adjoint``, ``cdcalc.cli.run``), so that the tracer and the
fakes in the tests see every call.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from math import comb

import oracles


def _cdcalc():
    import cdcalc
    import cdcalc.cli  # noqa: F401  (the cli workload calls cdcalc.cli.run)
    return cdcalc


def _digest(parts) -> str:
    import hashlib  # not at the top: set-up samples would pay for loading it

    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def bundled(spec, build_call):
    """Build every call of the warm-up and the items of a bundled spec."""
    def one(item):
        return {"id": item["id"], "calls": [build_call(c) for c in item["calls"]]}
    return {"warmup": one(spec["warmup"]), "items": [one(i) for i in spec["items"]]}


def each_call(built, outputs):
    """(name, call, output) for every call of every item, in order."""
    for item, outs in zip(built["items"], outputs):
        for k, (call, out) in enumerate(zip(item["calls"], outs)):
            yield f"{item['id']}[{k}]", call, out


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------

class Symbolic:
    """Adjoints, compositions, applications and Green remainders."""

    def build(self, spec, paths):
        cd = _cdcalc()
        contexts = {}

        def free(indep, dep):
            key = (tuple(indep), tuple(dep))
            if key not in contexts:
                contexts[key] = cd.JetContext.free(" ".join(indep), " ".join(dep))
            return contexts[key]

        def evolution(rule):
            if rule not in contexts:
                contexts[rule] = cd.JetContext.evolution("u", [rule])
            return contexts[rule]

        def one(item):
            kind = item["kind"]
            if kind == "free":
                ctx = free(item["indep"], item["dep"])
                return {"id": item["id"], "kind": kind, "ctx": ctx,
                        "a": cd.parse_operator_matrix(item["a"], ctx),
                        "b": cd.parse_operator_matrix(item["b"], ctx)}
            if kind == "green":
                ctx = free(item["indep"], item["dep"])
                triples = [(cd.parse_operator_matrix(t["op"], ctx),
                            [cd.parse_expr(s, ctx) for s in t["p"]],
                            [cd.parse_expr(s, ctx) for s in t["q"]])
                           for t in item["triples"]]
                return {"id": item["id"], "kind": kind, "ctx": ctx,
                        "triples": triples}
            ctx = evolution(item["rule"])
            return {"id": item["id"], "kind": kind, "ctx": ctx,
                    "a": cd.parse_operator_matrix(item["a"], ctx),
                    "b": cd.parse_operator_matrix(item["b"], ctx),
                    "v": [cd.parse_expr(s, ctx) for s in item["v"]]}

        return {"warmup": one(spec["warmup"]),
                "items": [one(item) for item in spec["items"]]}

    def run(self, item):
        cd = _cdcalc()
        kind = item["kind"]
        if kind == "free":
            a, b = item["a"], item["b"]
            return (cd.adjoint(cd.adjoint(a)), cd.adjoint(a @ b),
                    cd.adjoint(b) @ cd.adjoint(a))
        if kind == "green":
            ctx = item["ctx"]
            out = []
            for op, p, q in item["triples"]:
                lhs = cd.pairing(q, op(p)) - cd.pairing(cd.adjoint(op)(q), p)
                div = cd.DiffPoly.zero()
                for i, r in enumerate(cd.green_remainder(op, p, q)):
                    div = div + cd.total_derivative(ctx, i, r)
                out.append((lhs, div))
            return out
        a, b, v = item["a"], item["b"], item["v"]
        ab = a @ b
        return (ab(v), a(b(v)), cd.adjoint(cd.adjoint(a)), cd.adjoint(ab),
                cd.adjoint(b) @ cd.adjoint(a))

    def check(self, built, outputs, rng):
        failures = []
        for item, out in zip(built["items"], outputs):
            kind, name = item["kind"], item["id"]
            if kind == "free":
                aa, lhs, rhs = out
                if aa != item["a"]:
                    failures.append(f"{name}: adjoint(adjoint(a)) != a")
                if lhs != rhs:
                    failures.append(f"{name}: adjoint(a @ b) != adjoint(b) @ adjoint(a)")
            elif kind == "green":
                for k, (lhs, div) in enumerate(out):
                    if lhs != div:
                        failures.append(f"{name}[{k}]: Green remainder is not "
                                        "a total divergence of the defect")
            else:
                ab_v, a_b_v, aa, adj_ab, adj_ba = out
                if ab_v != a_b_v:
                    failures.append(f"{name}: (a @ b)(v) != a(b(v))")
                if aa != item["a"]:
                    failures.append(f"{name}: adjoint(adjoint(a)) != a")
                if adj_ab != adj_ba:
                    failures.append(f"{name}: adjoint(a @ b) != adjoint(b) @ adjoint(a)")
        return failures

    def digest(self, built, outputs):
        cd = _cdcalc()
        parts = []
        for item, out in zip(built["items"], outputs):
            ctx = item["ctx"]
            for x in (out if item["kind"] != "green" else [p for t in out for p in t]):
                if isinstance(x, list):
                    parts.append([cd.format_poly(p, ctx) for p in x])
                elif isinstance(x, cd.DiffPoly):
                    parts.append(cd.format_poly(x, ctx))
                else:
                    parts.append(cd.format_operator(x))
        return _digest(parts)


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

class Exactness:
    """Formal exactness of chains and cokernel ranks, policy and points."""

    SAMPLED_RANKS = 4  # fiber maps rechecked with sympy per run

    def _targets(self, cd):
        names = "x y z w".split()
        ctx = {n: cd.JetContext.free(" ".join(names[:n]), "u") for n in (2, 3, 4)}
        ctx5 = cd.JetContext.free("a b c d e", "u")

        def wave(c, metric, first, star_q, last):
            """d_last * star_q * d_first: the p-form wave operator."""
            g = cd.Metric.diag(metric)
            return (cd.dbar_operator(c, last) @ cd.star_operator(c, g, star_q)
                    @ cd.dbar_operator(c, first))

        waves = {"euclid": wave(ctx[4], [1, 1, 1, 1], 1, 2, 2),
                 "lorentz": wave(ctx[4], [-1, 1, 1, 1], 1, 2, 2)}
        targets = {f"derham{n}": cd.OperatorComplex(
            [cd.dbar_operator(ctx[n], q) for q in range(n)]) for n in (2, 3, 4)}
        for name, op in waves.items():
            targets[f"maxwell-{name}"] = cd.OperatorComplex(
                [op, cd.dbar_operator(ctx[4], 3)])
            targets[f"wave-{name}"] = op
        targets["gauge-p2n5"] = cd.OperatorComplex(
            [wave(ctx5, [1] * 5, 2, 3, 2), cd.dbar_operator(ctx5, 3),
             cd.dbar_operator(ctx5, 4)])
        targets["broken2"] = cd.OperatorComplex(
            [cd.dbar_operator(ctx[2], 0), cd.CDiffOp.zero(ctx[2], 1, 2)],
            orders=[1, 1])
        targets["grad2"] = cd.dbar_operator(ctx[2], 0)
        targets["grad3"] = cd.dbar_operator(ctx[3], 0)
        kdv_ctx = cd.JetContext.free("x t", "u")
        targets["kdv"] = cd.linearize(kdv_ctx, [kdv_ctx.parse("u_t - u*u_x - u_{x,x,x}")])
        return targets

    @staticmethod
    def _needed(target, call, level):
        if call == "coker":
            return target.coefficient_jet_order() + level
        ops, orders = target.operators, target.orders
        return max(max(ops[i].coefficient_jet_order() + orders[i + 1] + level,
                       ops[i + 1].coefficient_jet_order() + level)
                   for i in range(len(ops) - 1))

    def build(self, spec, paths):
        cd = _cdcalc()
        targets = self._targets(cd)

        def one(call):
            target = targets[call["target"]]
            pt = None
            if call["point"]:
                pt = cd.random_point(target.ctx, self._needed(target, call["call"],
                                                              call["level"]), call["seed"])
            return {**call, "obj": target, "pt": pt}

        return bundled(spec, one)

    def run(self, item):
        cd = _cdcalc()
        out = []
        for call in item["calls"]:
            if call["call"] == "coker":
                out.append(cd.cokernel_rank(call["obj"], call["level"], pt=call["pt"],
                                            seed=call["seed"]))
            else:
                out.append(cd.check_formal_exactness(call["obj"], call["level"],
                                                     pt=call["pt"], seed=call["seed"]))
        return out

    def _check_report(self, name, call, report):
        cplx = call["obj"]
        failures = []
        levels = range(call["level"] + 1)
        want = {(p, l) for p in range(1, len(cplx.operators)) for l in levels}
        got = {(c.position, c.l) for c in report.checks}
        if got != want:
            failures.append(f"{name}: checked (position, l) {sorted(got)}")
        for c in report.checks:
            dims = oracles.exactness_dims(cplx.module_ranks, cplx.orders,
                                          cplx.ctx.n, c.position, c.l)
            if tuple(c.dims) != dims:
                failures.append(f"{name}: dims {c.dims} at {c.position},{c.l}; "
                                f"closed form {dims}")
            defect = (oracles.broken_chain_defect(c.l)
                      if call["target"] == "broken2" else 0)
            if c.defect != defect:
                failures.append(f"{name}: defect {c.defect} at {c.position},{c.l}; "
                                f"expected {defect}")
            if c.defect != c.dims[1] - c.ranks[1] - c.ranks[0]:
                failures.append(f"{name}: defect is not dim ker - rank")
        return failures

    @staticmethod
    def _coker_answer(target, k1):
        if target.startswith("grad"):
            return oracles.gradient_cokernel(int(target[-1]), k1)
        if target.startswith("wave"):
            return oracles.wave_cokernel(k1)
        return 0  # a single evolution equation has no compatibility condition

    def check(self, built, outputs, rng):
        cd = _cdcalc()
        failures = []
        candidates = []  # fiber maps at explicit points, for the sympy recheck
        for name, call, out in each_call(built, outputs):
            if call["call"] == "coker":
                want = self._coker_answer(call["target"], call["level"])
                if out != want:
                    failures.append(f"{name}: cokernel rank {out}, closed form {want}")
                if call["pt"] is not None:
                    op = call["obj"]
                    codim = op.rows * oracles.jet_fiber_dim(op.ctx.n, call["level"])
                    candidates.append((name, call["pt"], op, call["level"], None,
                                       codim - out))
                continue
            failures.extend(self._check_report(name, call, out))
            if call["pt"] is None:
                continue
            cplx = call["obj"]
            for c in out.checks:
                idx = c.position - 1
                candidates.append((name, call["pt"], cplx.operators[idx],
                                   cplx.orders[idx + 1] + c.l, cplx.orders[idx],
                                   c.ranks[0]))
                candidates.append((name, call["pt"], cplx.operators[idx + 1], c.l,
                                   cplx.orders[idx + 1], c.ranks[1]))
        for name, pt, op, level, declared, reported in rng.sample(
                candidates, min(self.SAMPLED_RANKS, len(candidates))):
            fm = cd.spencer.fiber_map(op, level, pt, declared_order=declared)
            want = oracles.sympy_rank(fm.matrix)
            if reported != want:
                failures.append(f"{name}: rank {reported} of a "
                                f"{len(fm.matrix)}x{fm.domain_dim} fiber map; "
                                f"sympy gives {want}")
        return failures

    def digest(self, built, outputs):
        parts = []
        for _, _, out in each_call(built, outputs):
            if isinstance(out, int):
                parts.append(out)
            else:
                parts.append([(c.position, c.l, tuple(c.dims), tuple(c.ranks),
                               c.defect) for c in out.checks] + out.warnings)
        return _digest(parts)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

KDV_LINEARIZATION = "D_{t} - u*D_{x} - u_x - D_{x,x,x}"
KDV_ADJOINT = "-D_{t} + u*D_{x} + D_{x,x,x}"


def _key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


class Cli:
    """In-process ``cdcalc.cli.run`` calls on demo and generated files."""

    RECHECKED = 12  # calls repeated after the timed list for byte identity

    def build(self, spec, paths):
        cd = _cdcalc()

        def resolve(arg):
            if arg.startswith("@demos/"):
                return str(paths["demos"] / arg[len("@demos/"):])
            if arg.startswith("@"):
                return str(paths["work"] / arg[1:])
            return arg

        # what a user pays before the first result: the argument parser and
        # reading and parsing every input file once
        cd.cli.build_parser()
        kdv = cd.parse_problem((paths["demos"] / "kdv.prob").read_text())
        for name in sorted(spec["files"]):
            if name.startswith("malformed"):
                continue
            text = (paths["work"] / name).read_text()
            if name.endswith(".prob"):
                cd.parse_problem(text)
            elif name.endswith(".cplx"):
                cd.parse_complex(text)
            elif name.endswith(".forms"):
                cd.parse_matrix_forms(text, kdv.ctx)

        calls = [{**c, "args": [resolve(a) for a in c["argv"]]} for c in spec["calls"]]
        return {"warmup": {"id": "warmup", "args": ["kline", "--k", "2", "--n", "3"],
                           "expect": "kline", "k": 2, "n": 3},
                "items": calls}

    def run(self, item):
        cd = _cdcalc()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cd.cli.run(list(item["args"]))
        return code, out.getvalue(), err.getvalue()

    # -- checks ------------------------------------------------------------

    def _operator_cell(self, cd, out, as_json, ctx):
        if as_json:
            cell = json.loads(out)["matrix"][0][0]
        else:
            cell = out.split("matrix:\n", 1)[1].strip()
        return cd.parse_scalar_op(cell, ctx)

    def _check_one(self, cd, item, code, out, err):
        expect = item["expect"]
        as_json = "--json" in item["args"]
        if expect == "error":
            if code != 1 or not any(line.startswith("error:") for line in err.splitlines()):
                return [f"exit code {code}; expected 1 with an 'error:' line"]
            return []
        if code != 0:
            return [f"exit code {code}: {err.strip()[:200]}"]
        data = json.loads(out) if as_json else _key_values(out)
        if expect in ("kdv-linearization", "kdv-adjoint"):
            ctx = cd.JetContext.free("x t", "u", "lam")
            literal = KDV_LINEARIZATION if expect == "kdv-linearization" else KDV_ADJOINT
            if self._operator_cell(cd, out, as_json, ctx) != cd.parse_scalar_op(literal, ctx):
                return [f"operator differs from the hand derivation {literal!r}"]
        elif expect in ("linearization", "adjoint"):
            problem = item["problem"]
            ctx = cd.JetContext.free(" ".join(problem["indep"]), "u")
            want = cd.ScalarCDiffOp()
            for text in oracles.linearization_texts(problem["terms"], problem["indep"],
                                                    problem["order"]):
                want = want + cd.parse_scalar_op(text, ctx)
            got = self._operator_cell(cd, out, as_json, ctx)
            if expect == "adjoint":
                got = cd.adjoint(cd.CDiffOp(ctx, [[got]])).entries[0][0]
            if got != want:
                return [f"{expect} differs from the sympy linearization"]
        elif expect == "symbol":
            degree = data["degree"]
            if int(degree) != item["problem"]["order"]:
                return [f"symbol degree {degree}, expected {item['problem']['order']}"]
        elif expect in ("spencer-zero", "spencer-pair"):
            dims = {k: int(v) for k, v in data.items() if k.startswith("dims.")}
            want = {k: 1 if (expect == "spencer-pair" and k == "dims.2.2") else 0
                    for k in dims}
            if not dims or dims != want:
                return [f"dims {dims}"]
            involutive = str(data["involutive_up_to"])
            if involutive != ("2" if expect == "spencer-zero" else "None"):
                return [f"involutive_up_to {involutive}"]
        elif expect == "involutive":
            if str(data["involutive_up_to"]) != "2":
                return [f"involutive_up_to {data['involutive_up_to']}"]
        elif expect == "involutive-pair":
            failure = (data["failure"] if as_json else data.get("failure_at"))
            if failure not in ({"l": 2, "i": 2}, "l=2 i=2"):
                return [f"failure {failure}; expected l=2 i=2"]
        elif expect == "exact":
            return self._check_exact(item, out, as_json, data)
        elif expect == "coker-zero":
            if int(data["cokernel_rank"]) != 0:
                return [f"cokernel_rank {data['cokernel_rank']}"]
        elif expect == "zero-residual":
            zero = data["residual_zero"] if as_json else data.get("residual", "").startswith("0")
            if not zero:
                return ["residual is not zero"]
        elif expect == "kline":
            k, n = item["k"], item["n"]
            if as_json:
                ok = data["e1_zero_for_q_le"] == n - k and data["c_cohomology_zero_for_i_ge"] == k
            else:
                ok = (data.get("E1 vanishing", "").endswith(f"q <= {n - k}")
                      and data.get("C-cohomology vanishing", "").endswith(f"i >= {k}"))
            if not ok:
                return [f"kline ranges wrong for k={k} n={n}"]
        elif expect == "two-line":
            k = int(item["args"][item["args"].index("--k") + 1])
            p = int(item["args"][item["args"].index("--p") + 1])
            sign = item["args"][item["args"].index("--sign") + 1]
            nonzero = data["nonzero"] in (True, "true")
            if nonzero != (k >= 2):
                return [f"nonzero {data['nonzero']} for k={k}"]
            if not oracles.two_line_matches(data["polynomial"], k, p, sign):
                return ["two-line polynomial differs from the sympy expansion"]
        elif expect == "pform-epi":
            n, p = item["n"], item["p"]
            dim = comb(n, n - p - 1)
            got = {key: str(data[key]).lower() for key in
                   ("surjective", "rank", "dim", "target_degree")}
            if got != {"surjective": "true", "rank": str(dim), "dim": str(dim),
                       "target_degree": str(n - p - 1)}:
                return [f"{got}; a non-null covector gives a split surjection"]
        elif expect == "pform-table":
            if as_json:
                triples = [tuple(t) for t in data["entries"]]
            else:
                triples = [tuple(int(x) for x in line.strip("()").split(","))
                           for line in out.splitlines() if line.startswith("(")]
            want = oracles.pform_positions(item["n"], item["p"])
            if {(i, q) for i, q, _ in triples} != want or any(d != 1 for *_, d in triples):
                return [f"entries {triples}; expected unit dims at {sorted(want)}"]
        return []

    def _check_exact(self, item, out, as_json, data):
        ranks = item["ranks"]
        nvars = ranks[1]  # the chain starts with the gradient, so m_1 = n
        if as_json:
            if data["all_exact"] is not True:
                return ["all_exact is not true"]
            checks = [(c["position"], c["l"], tuple(c["dims"]), c["defect"])
                      for c in data["checks"]]
        else:
            if not data.get("all_exact", "").startswith("yes"):
                return ["all_exact is not yes"]
            checks = []
            for line in out.splitlines():
                if not line.startswith("position "):
                    continue
                head, _, rest = line.partition(": dims ")
                _, pos, lev = head.split()
                dims = tuple(int(x) for x in rest.split(",")[0].split(" -> "))
                defect = int(rest.split("defect ")[1].split(",")[0])
                checks.append((int(pos), int(lev[2:]), dims, defect))
        if not checks:
            return ["no checks reported"]
        for pos, lev, dims, defect in checks:
            want = oracles.exactness_dims(ranks, [1] * (len(ranks) - 1), nvars, pos, lev)
            if dims != want or defect != 0:
                return [f"position {pos} l={lev}: dims {dims} defect {defect}; "
                        f"closed form {want} with defect 0"]
        return []

    def check(self, built, outputs, rng):
        cd = _cdcalc()
        failures = []
        for item, out in zip(built["items"], outputs):
            try:
                messages = self._check_one(cd, item, *out)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                messages = [f"unreadable output ({type(exc).__name__}: {exc})"]
            for message in messages:
                failures.append(f"{item['id']} {' '.join(item['argv'])[:60]}: {message}")
        # the same arguments must give byte-identical output
        clean = [(i, item) for i, item in enumerate(built["items"])
                 if item["expect"] != "error"]
        for i, item in rng.sample(clean, min(self.RECHECKED, len(clean))):
            if self.run(item) != outputs[i]:
                failures.append(f"{item['id']}: a second call gave different bytes")
        return failures

    def digest(self, built, outputs):
        return _digest(outputs)


WORKLOADS = {"symbolic": Symbolic(), "exactness": Exactness(), "cli": Cli()}


def check_rng(seed: int) -> random.Random:
    """The stream that picks which outputs get the sampled rechecks."""
    return random.Random(f"checks:{seed}")

