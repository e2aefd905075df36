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
     "k[2] == 1 and not k[1]", "not k[1]",
     "tests/test_cli.py::test_reduce_values_match_the_reference"),
    ("involution-unreversed", "algebra.py",
     "return word[::-1], self._image,", "return word, self._image,",
     "tests/test_algebra.py::TestInvolution::test_antihomomorphism_with_conjugation"),
    ("involution-unconjugated", "algebra.py",
     "else c.conj(self.swap_pq)", "else c",
     "tests/test_algebra.py::TestInvolution::test_swap_pq_conjugates_scalars"),
    ("terms-unconverted", "algebra.py",
     "return [(w, as_scalar(self._t[w])) for w in self.words()]",
     "return [(w, self._t[w]) for w in self.words()]",
     "tests/test_algebra.py::TestExpression::test_equal_values_whatever_is_stored"),
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
    ("word-sign-dropped", "algebra.py",
     "acc = [(k, -v) for k, v in acc]", "acc = [(k, v) for k, v in acc]",
     "tests/test_algebra.py::TestNormalForm::test_grassmann_signs"),
    ("degree-0-exit-takes-linear", "scalars.py",
     "if deg == [0, 0]:", "if max(deg) <= 1:",
     "tests/test_scalars.py::TestPoly::test_gcd_of_typical_pairs"),
    ("prefix-memo-shifted", "algebra.py",
     "memo[word[:j + 1]] = prod", "memo[word[:j]] = prod",
     "tests/test_algebra.py::TestPrefixMemo::test_words_sharing_prefixes_fold_on_one_budget"),
    ("sum-keeps-zero", "scalars.py",
     "if not v:", "if v is None:",
     "tests/test_algebra.py::TestExpression::test_zero_terms_dropped"),
    ("poly-product-sign", "scalars.py",
     "a + a1 * a2 - b1 * b2", "a + a1 * a2 + b1 * b2",
     "tests/test_scalars.py::TestPoly::test_product_expansion"),
    ("divexact-unscaled", "scalars.py",
     "k = n // g", "k = 1",
     "tests/test_scalars.py::TestPoly::test_divexact_by_a_complex_divisor"),
    ("cofactors-swapped", "scalars.py",
     "return h, f.divexact(h), g.divexact(h)", "return h, g.divexact(h), f.divexact(h)",
     "tests/test_scalars.py::TestScalar::test_cancellation"),
    ("missing-swaps-skipped", "algebra.py",
     "*swaps.values())", "*(r for lhs, r in swaps.items() if lhs in self._idx))",
     "tests/test_cli.py::test_rules_dumps_match_the_golden_hashes"),
    ("given-parameter-image-dropped", "algebra.py",
     "out[gid] = out.pop(gid, Expression.from_gen(gid))",
     "out[gid] = Expression.from_gen(gid)",
     "tests/test_algebra.py::TestMorphism::test_a_given_parameter_image_wins"),
    ("memo-gate-dropped", "scalars.py",
     "len(b.den._c) > MEMO_TERMS:", "len(b.den._c) > 10 ** 9:",
     "tests/test_scalars.py::TestScalar::test_memo_takes_only_small_operands"),
    ("number-operator-sign", "verify.py",
     '"T": "x*px + th*pth"', '"T": "x*px - th*pth"',
     "tests/test_verify.py::test_structured_checks_match_golden_file"),
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
