"""Line probe: every statement of src/superplane/ runs under tier-1, or is
listed here with the reason why not.

The probe runs tier-1 as CI does, with trace/ first on PYTHONPATH: its
sitecustomize.py traces every interpreter that the tests start, and its
pytest plugin, tracehook.py, installs the tracer again before each test.
A statement is counted at the line where it starts, a decorated def at its
first decorator; docstrings are not statements.  It prints `file:line: text`
for each statement that no test ran and NEVER_RUN does not list, and a
line for each entry of NEVER_RUN that no longer names exactly one text, or
whose statements a test now runs.  Exit status 1 when it printed any of
these or tier-1 failed, else 0.  Run from the repository root:

    python mutants/lines.py
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "superplane"

# file under src/superplane/, enclosing function, an exact text inside it
# (None: the whole body), why tier-1 runs none of its statements
NEVER_RUN = [
    ("scalars.py", "Scalar.__rsub__", None,
     "number - Scalar; bench/spans.py wraps it, and it goes with that "
     "wrapper (ROADMAP item 3)"),
    ("scalars.py", "Scalar.__rtruediv__", None,
     "number / Scalar; bench/spans.py wraps it, and it goes with that "
     "wrapper (ROADMAP item 3)"),
    ("algebra.py", "critical_pairs", "return []",
     "max_len < 3; the parameter goes in ROADMAP item 3"),
    ("cli.py", "_cmd_reduce",
     'raise UsageError("expression is nested too deeply") from None',
     "run by test_reduce_syntax_error[nesting], whose RecursionError is "
     "raised inside the trace function, which the interpreter then unsets"),
]


def statements(tree):
    """Start line of each statement of a module, a decorated def or class
    at its first decorator, docstrings left out."""
    docs = {node.body[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    return {(getattr(node, "decorator_list", None) or [node])[0].lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in docs}


def functions(node, prefix=""):
    """(qualified name, node) of each def under node, as Class.method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from functions(child, name + ".")
        else:
            yield from functions(child, prefix)


def listed_lines(entry, source, tree, stmts):
    """The statement lines that entry lists, or the reason it is stale."""
    file, func, text, _ = entry
    nodes = [n for name, n in functions(tree) if name == func]
    if len(nodes) != 1:
        return f"{len(nodes)} functions named {func} in {file}"
    node = nodes[0]
    if text is None:
        first, last = node.body[0].lineno, node.end_lineno
    else:
        first = (node.decorator_list or [node])[0].lineno
        lines = source.splitlines()[first - 1:node.end_lineno]
        segment = "\n".join(lines)
        found = segment.count(text)
        if found != 1:
            return f"{text!r} occurs {found} times in {file}:{func}"
        first += segment[:segment.index(text)].count("\n")
        last = first + text.count("\n")
    covered = {n for n in stmts if first <= n <= last}
    return covered or f"{text!r} holds no statement in {file}:{func}"


def run_traced():
    """Run tier-1 under the tracer: its exit status, the lines of each file
    run by any process, and the ids of the tests that ran untraced."""
    with tempfile.TemporaryDirectory() as dump:
        env = dict(os.environ, LINES_DUMP_DIR=dump, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "mutants" / "trace"), str(ROOT / "src")]))
        code = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q",
             "-p", "no:cacheprovider", "-p", "tracehook",
             "--continue-on-collection-errors"], cwd=ROOT, env=env).returncode
        run, blind = {}, []
        for path in Path(dump).glob("*.json"):
            data = json.loads(path.read_text())
            for file, lines in data["lines"].items():
                run.setdefault(file, set()).update(lines)
            blind += data["blind"]
    return code, run, blind


def check(run):
    """The lines to print for the statements never run and the entries of
    NEVER_RUN; empty when every statement ran or is listed."""
    problems, listed, total = [], {}, 0
    trees = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        trees[path.name] = (source, ast.parse(source))
    stmts = {file: statements(tree) for file, (_, tree) in trees.items()}
    for entry in NEVER_RUN:
        file, func, text, _ = entry
        source, tree = trees[file]
        covered = listed_lines(entry, source, tree, stmts[file])
        if isinstance(covered, str):
            problems.append(f"stale entry: {covered}")
            continue
        ran = sorted(covered & run.get(file, set()))
        if ran:
            problems.append(f"listed but run: {file}:{ran[0]} ({func})")
        listed.setdefault(file, set()).update(covered)
    for file, (source, _) in trees.items():
        lines = source.splitlines()
        total += len(stmts[file])
        for n in sorted(stmts[file] - run.get(file, set())
                        - listed.get(file, set())):
            problems.append(f"{file}:{n}: {lines[n - 1].strip()}")
    return problems, total, sum(map(len, listed.values()))


def main():
    code, run, blind = run_traced()
    problems, total, listed = check(run)
    for line in problems:
        print(line)
    print(f"{total} statements, {listed} listed as never run, "
          f"{len(problems)} problems; tests run untraced: "
          f"{', '.join(sorted(blind)) or 'none'}")
    if code != 0:
        print(f"tier-1 exited {code}")
    return 1 if problems or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
