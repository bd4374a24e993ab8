"""Rewrite ``src/sphrestrict/_zero_table.py``, the first zeros of J_nu that
the zero finder takes from a table.

    python tools/gen_zero_table.py

Run it from the root of a checkout after any change to J or to the zero
finder: the table holds the finder's own doubles, and
``tests/test_zero_table.py`` fails until it is rewritten.  The zeros are
found by ``special_fns`` itself with the table emptied, in well under a
second.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sphrestrict import special_fns  # noqa: E402

TABLE = ROOT / "src" / "sphrestrict" / "_zero_table.py"

# d = 2..33: every order of a kernel integral up to d = 33.
DIMENSIONS = range(2, 34)

# Zeros 1..96, three chunks of the finder: every kernel sum of the
# benchmark's grids and of ``sweep`` at 1e-9 stops within them.
COUNT = 3 * special_fns._ZERO_CHUNK

HEADER = f'''"""The first {COUNT} positive zeros of J_nu, nu = (d - 2)/2 for d = {DIMENSIONS[0]}..{DIMENSIONS[-1]}.

Generated by ``python tools/gen_zero_table.py``; do not edit.  Each zero is
the double that ``special_fns``' Newton run finds for it, written with
``repr``, so a zero read from here is the one the finder gives.  Rerun the
command after any change to J or to the zero finder.
"""

ZEROS = {{
'''


def find_zeros() -> dict[float, list[float]]:
    """Zeros 1..COUNT of every tabled order, found by the zero finder with
    the table emptied."""
    special_fns._zero_table = dict
    orders = [(d - 2) / 2.0 for d in DIMENSIONS]
    special_fns.find_first_zeros(orders)
    table = {}
    for nu in orders:
        special_fns.bessel_j_zero(nu, COUNT)
        zeros = special_fns._ZEROS[nu][:COUNT]
        if not all(isinstance(zero, float) for zero in zeros):
            raise SystemExit(f"J_{nu}: the finder gave an error, not a zero: {zeros}")
        table[nu] = zeros
    return table


def main() -> None:
    lines = [
        f"    {nu!r}: ({', '.join(map(repr, zeros))}),\n" for nu, zeros in find_zeros().items()
    ]
    TABLE.write_text(HEADER + "".join(lines) + "}\n")
    print(f"wrote {len(lines)} orders x {COUNT} zeros to {TABLE.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
