"""Checked-in mutants: each deliberate fault must make its named tests fail.

Run from anywhere with ``python3 tools/mutants.py``; it needs pytest and
the test dependencies, nothing else.  For each entry of ``MUTANTS`` the
script copies ``src/`` to a temporary directory, replaces the entry's old
text (which must occur exactly once in its file, so drift shows) with the
new text there, and runs each named test in its own pytest process with
``PYTHONPATH`` pointing at the copy.  A test kills the mutant when pytest
exits 1 (tests failed); exit 0 means the mutant survived it, and any other
exit (an unknown test id, a collection error) is reported as an error.
The script exits 1 unless every named test kills its mutant.

A new fast path adds its mutants here, each with the tests that catch it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cyclofourier
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = [
    Mutant("_dets_mod keeps the sign across a row swap", "matrix.py",
           "                rows[k], rows[r] = rows[r], rows[k]\n"
           "                dets[i] = -dets[i]\n",
           "                rows[k], rows[r] = rows[r], rows[k]\n",
           ("tests/test_matrix.py::test_split_prime_kernel_matches_bareiss_on_transform_matrices",
            "tests/test_matrix.py::test_a_row_swap_under_one_embedding_only")),
    Mutant("_dets_mod gives each pivot its neighbour's inverse", "matrix.py",
           "zip(live, pivots, inverses)",
           "zip(live, pivots, inverses[1:] + inverses[:1])",
           ("tests/test_matrix.py::test_split_prime_kernel_matches_bareiss_and_expansion",)),
    Mutant("the Hadamard-Parseval bound does not square the row norms", "matrix.py",
           "sum(x * x for x in row) for row in norms)",
           "sum(row) for row in norms)",
           ("tests/test_matrix.py::"
            "test_coefficient_bound_holds_and_is_at_most_the_permanent_bound",)),
    Mutant("_bareiss_int drops the pending scale of the last entry", "matrix.py",
           "return sign * (m[n - 1][n - 1] * prev // since[n - 1])",
           "return sign * m[n - 1][n - 1]",
           ("tests/test_matrix.py::test_bareiss_int_property",
            "tests/test_matrix.py::test_bareiss_int_matches_dense_bareiss_on_every_spike_transform")),
    Mutant("a failed adjoint comparison skips the entrywise check", "isoverify.py",
           "if not holds and not naturality_check(f, fn):",
           "if not holds and False:",
           ("tests/test_isoverify.py::test_naturality_sweep_matches_oracle_under_a_faulty_dual_hom",)),
    Mutant("check_defined accepts every prime and level", "isoverify.py",
           '        """Raise ValueError unless the function is defined at every point a/prime^level."""\n',
           '        """Raise ValueError unless the function is defined at every point a/prime^level."""\n'
           "        return\n",
           ("tests/test_isoverify.py::test_functions_undefined_on_a_group_are_refused_up_front",)),
    Mutant("the Fourier proof skips its round trips", "groupalgebra.py",
           "and all(ok for ok, _ in _round_trips(group, ring, ring.zeta(1), g_1)))",
           "and True)",
           ("tests/test_groupalgebra.py::test_each_proof_step_rejects_its_own_defect",)),
    Mutant("step 2 drops its symmetry clause", "groupalgebra.py",
           "            or any(col != row for col, row in zip(zip(*table), table))):\n",
           "            ):\n",
           ("tests/test_groupalgebra.py::test_each_proof_step_rejects_its_own_defect",)),
    Mutant("step 3 accepts a table with any nonzero row", "groupalgebra.py",
           "    return all(map(any, table[1:]))\n",
           "    return any(map(any, table[1:]))\n",
           ("tests/test_groupalgebra.py::test_each_proof_step_rejects_its_own_defect",
            "tests/test_groupalgebra.py::"
            "test_nondegenerate_rows_of_a_bilinear_table_are_its_orthogonal_rows")),
    Mutant("the shared round trips check the left direction only", "groupalgebra.py",
           "        verdicts.append(verdict)\n",
           "        verdicts.append(verdict if make is AlgElem else (True, None))\n",
           ("tests/test_groupalgebra.py::test_shared_round_trips_match_the_two_loop_oracle[sign]",
            "tests/test_groupalgebra.py::"
            "test_shared_round_trips_match_the_two_loop_oracle[off-diagonal]")),
    Mutant("the Fourier kernel accepts a ring of another prime", "groupalgebra.py",
           "    if group.prime != ring.prime:\n",
           "    if False:\n",
           ("tests/test_groupalgebra.py::test_fourier_requires_enough_roots",)),
    Mutant("the Fourier kernel drops the M / N scale of the numerator table", "groupalgebra.py",
           "    step = sign * (M // group.exponent_value)\n",
           "    step = sign\n",
           ("tests/test_groupalgebra.py::test_transforms_match_pairing_oracle",)),
    Mutant("step 1 spreads its buckets over every zeta_M support", "groupalgebra.py",
           "    roots = supports[::M // N]\n",
           "    roots = supports\n",
           ("tests/test_groupalgebra.py::"
            "test_packed_step_one_accepts_what_the_single_term_check_accepts",)),
    Mutant("CycloElem keeps a negative denominator exponent", "exactring.py",
           "        elif exp < 0:\n            nums = [c * p ** -exp for c in nums]\n"
           "            exp = 0\n",
           "",
           ("tests/test_exactring.py::"
            "test_a_negative_denominator_exponent_is_folded_into_the_numerators",)),
    Mutant("a zeta^u support is built for zeta^(u+1)", "exactring.py",
           "                vec[u] = 1\n",
           "                vec[(u + 1) % M] = 1\n",
           ("tests/test_exactring.py::test_zeta_sum_equals_the_ring_sum_of_zeta_powers",
            "tests/test_exactring.py::test_zeta_supports_are_the_monomials_reduced_by_sympy")),
    Mutant("a zeta^u support drops the sign of its terms", "exactring.py",
           "tuple((k, c) for k, c in enumerate(self.reduce_vector(vec)) if c)",
           "tuple((k, abs(c)) for k, c in enumerate(self.reduce_vector(vec)) if c)",
           ("tests/test_exactring.py::test_zeta_sum_equals_the_ring_sum_of_zeta_powers",
            "tests/test_exactring.py::test_zeta_supports_are_the_monomials_reduced_by_sympy")),
    Mutant("the norm's doubling drops its odd-bit product", "exactring.py",
           "            if bit == \"1\":\n                P = P * _substitute(y, pow(t, a, M), ring)\n",
           "            if bit == \"1\":\n",
           ("tests/test_exactring.py::test_adjugate_norm_equals_the_full_conjugate_product[162]",
            "tests/test_exactring.py::test_adjugate_norm_equals_the_full_conjugate_product[7]")),
    Mutant("the norm stops after the first step of its subgroup chain", "exactring.py",
           "    for t, k in _coset_chain(M):\n",
           "    for t, k in _coset_chain(M)[:1]:\n",
           ("tests/test_exactring.py::test_adjugate_norm_equals_the_full_conjugate_product[8]",
            "tests/test_exactring.py::test_adjugate_norm_equals_the_full_conjugate_product[40]")),
    Mutant("the Gauss identity check ignores the unit flag of the base sum", "chargauss.py",
           "* base and base_unit",
           "* base",
           ("tests/test_chargauss.py::test_unit_flag_of_the_base_sum_is_consulted",)),
    Mutant("the Gauss identity check reads G(chi, eps_0) as the base sum", "chargauss.py",
           "        base = sums[1]\n        base_unit = primitive",
           "        base = sums[0]\n        base_unit = primitive",
           ("tests/test_chargauss.py::test_gauss_identity_reports_small_levels",)),
    Mutant("the Gauss table flags every twisted row a unit", "chargauss.py",
           "base_unit if twisted",
           "True if twisted",
           ("tests/test_cli.py::test_gauss_table_matches_a_per_row_unit_oracle",)),
    Mutant("an element equals a functional with the same coordinates", "report.py",
           "        if other.__class__ is self.__class__:\n"
           "            return self._key() == other._key()\n",
           "        if isinstance(other, _Value):\n"
           "            return self._key() == other._key()\n",
           ("tests/test_finab.py::"
            "test_dual_elements_share_the_coordinate_check_but_never_equal_elements",
            "tests/test_value_types.py::test_elements_never_equal_functionals")),
    Mutant("groups of one prime compare equal", "finab.py",
           '    _fields = ("prime", "exponents")\n',
           '    _fields = ("prime",)\n',
           ("tests/test_finab.py::test_group_validation_and_basics",)),
    Mutant("_key drops the last field", "report.py",
           "for name in self._fields])",
           "for name in self._fields[:-1]])",
           ("tests/test_value_types.py::"
            "test_equality_ignores_the_derived_factor_orders_and_tracks_every_field",)),
    Mutant("frozen value types accept assignment", "report.py",
           "    def __setattr__(self, name, value):\n"
           "        raise AttributeError(f\"cannot assign to field {name!r}\")\n\n",
           "",
           ("tests/test_value_types.py::test_frozen_value_types_refuse_assignment",)),
]


def _apply(src: Path, mutant: Mutant) -> str | None:
    """Write the mutant into the copy at src; an error message if its old text is not unique."""
    path = src / "cyclofourier" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"old text found {count} times in {mutant.file}, not once"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return None


def _run_test(src: Path, test: str) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.call([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                            test], cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def check(mutant: Mutant) -> list[str]:
    """The problems with one mutant: every named test must fail on it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        error = _apply(src, mutant)
        if error:
            return [error]
        problems = []
        for test in mutant.tests:
            code = _run_test(src, test)
            if code == 0:
                problems.append(f"survived {test}")
            elif code != 1:
                problems.append(f"pytest exit {code} on {test}")
        return problems


def main() -> int:
    start = time.perf_counter()
    failed = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        problems = check(mutant)
        status = "FAIL" if problems else "killed"
        print(f"{status:6} {mutant.file}: {mutant.name} ({time.perf_counter() - t0:.1f} s)",
              flush=True)
        for problem in problems:
            print(f"       {problem}", flush=True)
        failed += bool(problems)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
