"""Line probe: every statement of src/superplane/ runs under tier-1.

The probe is CI's only run of tier-1: under `-X dev -W error`, so that a
warning fails a test, with `--durations=10`, which puts the ten slowest
tests in the log (traced, they take about twice as long as untraced), and
with trace/ first on PYTHONPATH, so that its sitecustomize.py traces every
interpreter that the tests start.  A statement is counted at the line
where it starts, a decorated def at its first decorator; docstrings are
not statements.  It prints `file:line: text` for each statement that no
test ran.  Exit status 1 when it printed one or tier-1 failed, else 0.
Run from the repository root:

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


def statement_lines():
    """For each file of src/superplane/, {start line: its text} of each
    statement."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        out[path.name] = {n: lines[n - 1].strip()
                          for n in sorted(statements(ast.parse(source)))}
    return out


def run_traced():
    """Run tier-1 under the tracer: its exit status, and the lines of each
    file run by any process."""
    with tempfile.TemporaryDirectory() as dump:
        env = dict(os.environ, LINES_DUMP_DIR=dump, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "mutants" / "trace"), str(ROOT / "src")]))
        code = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q",
             "-p", "no:cacheprovider", "--continue-on-collection-errors",
             "--durations=10"],
            cwd=ROOT, env=env).returncode
        run = {}
        for path in Path(dump).glob("*.json"):
            for file, lines in json.loads(path.read_text()).items():
                run.setdefault(file, set()).update(lines)
    return code, run


def check(run, stmts):
    """`file:line: text` of each statement of stmts, as statement_lines
    gives them, whose line is not in run, the lines run of each file."""
    return [f"{file}:{n}: {text}" for file, lines in stmts.items()
            for n, text in lines.items() if n not in run.get(file, ())]


def main():
    code, run = run_traced()
    stmts = statement_lines()
    never = check(run, stmts)
    for line in never:
        print(line)
    print(f"{sum(map(len, stmts.values()))} statements, {len(never)} never run")
    if code != 0:
        print(f"tier-1 exited {code}")
    return 1 if never or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
