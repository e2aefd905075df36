"""Kept mutants: faults in the engine that the tests must catch.

Each entry changes one exact text of a file under src/superplane/ in a copy
of src/ and runs one tier-1 test against the copy, which must fail.  A text
that no longer occurs exactly once fails its case, so a refactor cannot
retire a mutant without editing this list.  One more case checks the
verdict of the line probe, lines.py, on a given set of lines run.  Run from
the repository root:

    python -m pytest -q mutants
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lines

ROOT = Path(__file__).resolve().parent.parent

# name, file under src/superplane/, text, its replacement, the test that
# must fail on the mutant
MUTANTS = [
    ("lower-without-denominator", "algebra.py",
     "k.d == 1 and not k.b", "not k.b",
     "tests/test_cli.py::test_reduce_values_match_the_reference"),
    ("involution-unreversed", "algebra.py",
     "return word[::-1], self._image, c.conj(self.swap_pq)",
     "return word, self._image, c.conj(self.swap_pq)",
     "tests/test_algebra.py::TestInvolution::test_antihomomorphism_with_conjugation"),
    ("involution-unconjugated", "algebra.py",
     "return word[::-1], self._image, c.conj(self.swap_pq)",
     "return word[::-1], self._image, c",
     "tests/test_algebra.py::TestInvolution::test_swap_pq_conjugates_scalars"),
    ("render-q-power", "parsing.py",
     'else f"q^{j}"', 'else "q"',
     "tests/test_parsing.py::TestRender::test_round_trip"),
    ("cursor-past-junction", "algebra.py",
     "len(w) - 1 if w else 0,", "len(w) if w else 0,",
     "tests/test_algebra.py::TestNormalForm::test_strategy_independence"),
    ("cursor-past-child", "algebra.py",
     "pos - 1 if pos else 0))", "pos + 1))",
     "tests/test_algebra.py::TestNormalForm::test_blocks_are_intervals_of_the_order"),
    ("block-sign-dropped", "algebra.py",
     "odd.append((-c, *term[1:]) if passes else term)", "odd.append(term)",
     "tests/test_algebra.py::TestNormalForm::test_covariance_matches_random_strategy"),
    ("split-sign-dropped", "algebra.py",
     "                    sign = -sign", "                    sign = sign",
     "tests/test_algebra.py::TestNormalForm::test_rule_parameters_move_with_their_sign"),
    ("certificate-skips-linear", "scalars.py",
     "        if len(a) > 1:", "        if len(a) > 2:",
     "tests/test_scalars.py::TestPoly::test_certificate_agrees_with_the_prs"),
    ("prefix-memo-shifted", "algebra.py",
     "memo[word[:j + 1]] = prod", "memo[word[:j]] = prod",
     "tests/test_algebra.py::TestPrefixMemo::test_words_sharing_prefixes_fold_on_one_budget"),
    ("sum-keeps-zero", "scalars.py",
     "if not v:", "if v is None:",
     "tests/test_algebra.py::TestExpression::test_zero_terms_dropped"),
]


def run_tests(src, test_ids):
    """Run test_ids as tier-1 does, with superplane imported from src; no
    pytest cache is written, so a mutant's failures stay out of --lf."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q",
         "-p", "no:cacheprovider", "--hypothesis-profile=mutants", *test_ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def copy_src(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    return tmp_path / "src"


@pytest.mark.parametrize("file, text, mutant, test_id",
                         [pytest.param(*m[1:], id=m[0]) for m in MUTANTS])
def test_mutant_is_caught(tmp_path, file, text, mutant, test_id):
    src = copy_src(tmp_path)
    path = src / "superplane" / file
    code = path.read_text()
    found = code.count(text)
    assert found == 1, f"{text!r} occurs {found} times in {file}"
    path.write_text(code.replace(text, mutant))
    result = run_tests(src, [test_id])
    # 1 is a failing test; 2 would be a collection error, which catches nothing
    assert result.returncode == 1, result.stdout[-2000:] + result.stderr[-2000:]


def test_unmutated_copy_passes(tmp_path):
    result = run_tests(copy_src(tmp_path), sorted({m[4] for m in MUTANTS}))
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


def test_line_probe_reports_each_statement_never_run():
    # every statement run: no report; one left out: exactly its line
    stmts = lines.statement_lines()
    run = {file: set(found) for file, found in stmts.items()}
    assert lines.check(run, stmts) == []
    text = "MAX_NESTING = 100"
    n = (lines.SRC / "parsing.py").read_text().splitlines().index(text) + 1
    run["parsing.py"].discard(n)
    assert lines.check(run, stmts) == [f"parsing.py:{n}: {text}"]
