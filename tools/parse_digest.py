"""Hash what the text front end makes of a fixed corpus, to compare two trees.

Every text is read as an expression (``parse_expr``), an operator literal
(``parse_scalar_op``) and a coordinate name (``parse_coord``) in three
contexts: free (x t / u v / a), multi-character (x1 x2 / u w / lam) and
evolution KdV.  Each result is recorded as its printed value, or as the
error's type, message and offset; the SHA-256 of all records is printed.

The corpus: every line of every file under ``demos/data`` and
``tests/golden``, with its ';'-cells, '='-sides and words; the same pieces of
the seed 1-3 ``symbolic`` and ``cli`` inputs of ``perfbench/inputs.py``; and
seeded one-spot mutations (a character deleted, inserted or replaced) of
those texts.  Run it from the repository root against the tree to check:

    PYTHONPATH=src python3 tools/parse_digest.py [--mutations 40000]
"""

import argparse
import hashlib
import random
import sys
from pathlib import Path

from cdcalc import JetContext, ParseError, parse_coord, parse_expr, parse_scalar_op
from cdcalc.expr import format_coord, format_poly
from cdcalc.ops import format_scalar_op

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.inputs import cli_spec, symbolic_spec  # noqa: E402

ALPHABET = "{}_,()+-*/^ 0123456789Dxtuvawl"


def pieces(text: str):
    """A line, its ';'-cells, its '='-sides and its words."""
    for line in text.splitlines():
        yield line
        yield from line.split(";")
        yield from line.split("=")
        yield from line.split()


def strings(value):
    """Every string inside a spec of dicts, lists and tuples."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from strings(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from strings(item)


def corpus() -> list[str]:
    texts = []
    for folder in ("demos/data", "tests/golden"):
        for path in sorted((ROOT / folder).iterdir()):
            texts.extend(pieces(path.read_text(encoding="utf-8")))
    for seed in (1, 2, 3):
        for spec in (symbolic_spec(seed), cli_spec(seed)):
            for text in strings(spec):
                texts.extend(pieces(text))
    return list(dict.fromkeys(t.strip() for t in texts))


def mutations(texts: list[str], count: int, seed: int = 28) -> list[str]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        text = rng.choice(texts)
        i = rng.randrange(len(text) + 1)
        how = rng.randrange(3)
        ch = rng.choice(ALPHABET)
        if how == 0 and i < len(text):
            out.append(text[:i] + text[i + 1:])
        elif how == 1:
            out.append(text[:i] + ch + text[i:])
        else:
            out.append(text[:i] + ch + text[i + 1:])
    return out


def contexts():
    return (JetContext.free("x t", "u v", ("a",)),
            JetContext.free("x1 x2", "u w", ("lam",)),
            JetContext.evolution(("u",), ["u*u_x + u_{x,x,x}"]))


READERS = (
    ("expr", parse_expr, format_poly),
    ("op", parse_scalar_op, format_scalar_op),
    ("coord", parse_coord, format_coord),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mutations", type=int, default=40000)
    args = parser.parse_args()
    base = corpus()
    texts = base + mutations([t for t in base if t], args.mutations)
    digest, calls, errors = hashlib.sha256(), 0, 0
    for ctx in contexts():
        for name, read, show in READERS:
            for text in texts:
                calls += 1
                try:
                    record = "ok " + show(read(text, ctx), ctx)
                except ValueError as exc:
                    errors += 1
                    pos = exc.pos if isinstance(exc, ParseError) else None
                    record = f"{type(exc).__name__} {exc} @{pos}"
                digest.update(f"{name}\0{text}\0{record}\n".encode())
    print(f"texts {len(texts)} ({len(base)} base), calls {calls}, errors {errors}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
