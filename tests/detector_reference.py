"""The all-equal detector's truth table and lemma rows, built one input at
a time: the reference the array builds of ``boolfun.make_g`` and
``threshold_analysis._g_u_rows`` are tested against."""

from itertools import product

import numpy as np

from ptflab.boolfun import assignment_of_index
from ptflab.polynomial import _strong_forms
from ptflab.shapes import Convention
from ptflab.threshold_analysis import _sign_rows


def g_table(k: int, variant: str) -> int:
    """g1 outputs -x_k unless all bits agree, then x_k; g0 outputs x_1
    unless all bits agree, then -x_1.  Bit i is the output at input i."""
    table = 0
    for idx in range(1 << k):
        x = assignment_of_index(idx, k, Convention.PLUS_MINUS)
        equal = all(v == x[0] for v in x)
        if variant == "g1":
            val = x[-1] if equal else -x[-1]
        else:
            val = -x[0] if equal else x[0]
        if val == 1:
            table |= 1 << idx
    return table


def g_u_rows(which: str, k: int) -> tuple:
    """The detector's sign rows over its linear forms, x in product order,
    the class of each x shifted out of ``g_table`` one input at a time."""
    table = g_table(k, which)
    x = np.array(list(product((-1, 1), repeat=k)), np.int8).reshape(-1, k)
    u = np.stack([a * x[:, v] + b * x[:, w] for (v, a), (w, b) in _strong_forms(range(k))], axis=1)
    index = ((x == 1) << np.arange(k)).sum(axis=1)
    return _sign_rows(u, np.array([table >> i & 1 for i in index.tolist()]))
