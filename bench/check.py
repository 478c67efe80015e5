"""Row-by-row check of an experiment CSV against its reference CSV.

Columns are matched by name and extra output columns are ignored, so a
later column (such as a convergence flag) does not fail the check.  A row
fails when any reference column is missing or, by column kind:

- text (``system``, ``sweep_param``): not equal;
- ``trials``: not the same integer;
- Monte Carlo values (``op``, ``ecr``, ``cr``): more than 4 reference
  standard errors from the reference (1e-9 where that error is 0);
- closed-form values (``p_c_db``, ``sweep_value``, ``sr``): more than
  1e-9 from the reference, or more than 1.5 units of the 10th significant
  digit (the CLI writes ``.10g``) where that is larger.  The ISAC ``sr``
  rows depend on the mean covariance, a Monte Carlo average that is
  deterministic for a fixed seed and trial count, so they are held to
  this tolerance too.

Standard-error columns are not checked on their own.  Rows are compared
in order; a missing or extra row fails.
"""

from __future__ import annotations

import csv
import io
import math

TEXT = ("system", "sweep_param")
COUNT = ("trials",)
MONTE_CARLO = {"op": "std_err", "ecr": "std_err", "cr": "cr_std_err"}
CLOSED_FORM = ("p_c_db", "sweep_value", "sr")
STD_ERR = ("std_err", "cr_std_err")
CLOSED_FORM_TOL = 1e-9
SE_MULTIPLE = 4.0


def closed_form_tol(ref: float) -> float:
    """1e-9, or 1.5 units of the last digit a ``.10g`` value of ``ref`` shows."""
    if ref == 0.0:
        return CLOSED_FORM_TOL
    return max(CLOSED_FORM_TOL, 1.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 9))


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def row_ok(row, ref) -> bool:
    try:
        for col, ref_val in ref.items():
            val = row[col]
            if col in TEXT:
                ok = val == ref_val
            elif col in COUNT:
                ok = int(val) == int(ref_val)
            elif col in MONTE_CARLO:
                tol = max(SE_MULTIPLE * float(ref[MONTE_CARLO[col]]), CLOSED_FORM_TOL)
                ok = abs(float(val) - float(ref_val)) <= tol
            elif col in CLOSED_FORM:
                ok = abs(float(val) - float(ref_val)) <= closed_form_tol(float(ref_val))
            elif col in STD_ERR:
                ok = True
            else:
                raise ValueError(f"reference column {col!r} has no rule")
            if not ok:
                return False
    except (KeyError, TypeError, ValueError):
        return False
    return True


def check_csv(output_text, reference_text):
    """Return (rows attempted, rows failed, byte identical) for one output."""
    ref_rows = read_rows(reference_text)
    out_rows = read_rows(output_text)
    failed = sum(not row_ok(row, ref) for row, ref in zip(out_rows, ref_rows))
    failed += abs(len(ref_rows) - len(out_rows))
    return len(ref_rows), min(failed, len(ref_rows)), output_text == reference_text
