"""Mutation probe: which guard catches a one-token fault in a module.

Usage: python tools/mutants.py LABEL MODULE [MODULE ...] [--timeout S]

Each mutant changes one site of ``src/su2branch/MODULE.py``: a swap of
< and <=, > and >=, == and !=, or + and -; a * turned into //; or an int
constant plus 1.  Two guards run on a copy of ``src/``, ``tests/`` and
``bench/``: ``verify.run_all()`` in a subprocess, which records the
registry entries that fail, and the tests.  The tests run as
``pytest -x tests/test_MODULE.py`` first; a mutant that survives them is
run against the whole tier-1 suite before it is recorded as a survivor,
since another module's tests may kill it ("killed by tier-1").  A guard
that outlives the timeout kills the mutant and is recorded as "hang".  Writes
``MUTANTS_LABEL.json`` at the repository root, with each entry's kill
count and the mutants it alone kills, and each mutant's line and
enclosing function.  Not a test and not a workload.
"""

import argparse, ast, json, os, shutil, subprocess, sys, tempfile  # noqa: E401
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
          ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//"}
VERIFY = ("import json; from su2branch.verify import run_all; "
          "print(json.dumps(sorted({c.name.split(' ', 1)[1] for c in run_all() if not c.passed})))")


def sites(tree):
    """(node, slot, description, function) per mutable site, in ast.walk
    order; ``function`` is the innermost enclosing def, or "<module>"."""
    owner = {}
    for node in ast.walk(tree):  # breadth first, so an inner def overwrites its outer one
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(node), node.name))
    for node in ast.walk(tree):
        function = owner.get(node, "<module>")
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in SWAP:
                    yield node, j, f"{SYMBOL[type(op)]} -> {SYMBOL[SWAP[type(op)]]}", function
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
            yield node, None, f"{SYMBOL[type(node.op)]} -> {SYMBOL[SWAP[type(node.op)]]}", function
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, None, f"{node.value} -> {node.value + 1}", function


def mutant(source, k):
    """The source with site k changed."""
    tree = ast.parse(source)
    node, j, _, _ = list(sites(tree))[k]
    if isinstance(node, ast.Compare):
        node.ops[j] = SWAP[type(node.ops[j])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = SWAP[type(node.op)]()
    return ast.unparse(tree)


def guard(argv, cwd, timeout):
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


def probe(module, work, timeout):
    path = work / "src" / "su2branch" / f"{module}.py"
    source = (ROOT / "src" / "su2branch" / f"{module}.py").read_text()
    pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    for k, (node, _, op, function) in enumerate(sites(ast.parse(source))):
        path.write_text(mutant(source, k))
        run = guard([sys.executable, "-c", VERIFY], work, timeout)
        verify = "hang" if run is None else json.loads(run.stdout) if run.returncode == 0 else "error"
        run = guard([*pytest, f"tests/test_{module}.py"], work, timeout)
        own = "hang" if run is None else "killed" if run.returncode else "survived"
        if own == "survived":  # tier-1, as CI runs it
            run = guard([sys.executable, "-W", "error", *pytest[1:]], work, timeout)
            own = "hang" if run is None else "killed by tier-1" if run.returncode else "survived"
        print(f"{module}:{node.lineno} {op}: verify {verify}, tests {own}", file=sys.stderr)
        yield {"module": module, "line": node.lineno, "function": function, "op": op,
               "verify": verify, "tests": own}
    path.write_text(source)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("modules", nargs="+")
    ap.add_argument("--timeout", type=float, default=60.0)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        mutants = [m for module in args.modules for m in probe(module, work, args.timeout)]
    failed = [m["verify"] for m in mutants if isinstance(m["verify"], list)]
    sys.path.insert(0, str(ROOT / "src"))
    from su2branch.invariants import INVARIANTS
    entries = {name: {"kills": sum(name in f for f in failed), "sole": sum(f == [name] for f in failed)}
               for name in ["construction", *(inv.name for inv in INVARIANTS)]}
    summary = {module: Counter(
        ("survive verify" if m["verify"] == [] else "hang" if m["verify"] == "hang" else "killed by verify",
         "tests " + m["tests"]) for m in mutants if m["module"] == module) for module in args.modules}
    doc = {"command": ["python", "tools/mutants.py", *sys.argv[1:]],
           "summary": {module: {" / ".join(k): n for k, n in sorted(c.items())} for module, c in summary.items()},
           "entries": entries, "mutants": mutants}
    (ROOT / f"MUTANTS_{args.label}.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
