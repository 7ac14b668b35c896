"""Reference decomposition: every product, scaling and sum in a new array.

The allocating form of ``pwtraffic.models.power_sums``, ``z_lambda``,
``pw_matrix`` and ``decompose``, kept as a test oracle for the in-place
forms.  Both run the same IEEE operations on the same operands in the same
order, so their results agree entry for entry (``np.array_equal``); only
the sign of an exactly zero entry may differ, because the in-place forms
never add a term to a literal zero.  Also the ``SetPartition`` form of
``models.inclusion_exclusion_terms``.
"""

from __future__ import annotations

import math

import numpy as np

from pwtraffic.hermite import Polynomial, expect_scaled
from pwtraffic.models import Decomposition, inclusion_exclusion_terms
from partitions_oracle import enumerate_set_partitions


def inclusion_exclusion_terms_oracle(parts):
    """``models.inclusion_exclusion_terms`` over built ``SetPartition`` objects."""
    grouped = {}
    for sigma in enumerate_set_partitions(len(parts)):
        weight = 1
        sums = []
        for block in sigma.blocks:
            weight *= (-1) ** (len(block) - 1) * math.factorial(len(block) - 1)
            sums.append(sum(parts[k - 1] for k in block))
        key = tuple(sorted(sums, reverse=True))
        grouped[key] = grouped.get(key, 0) + weight
    return tuple((c, key) for key, c in grouped.items() if c != 0)


def power_sums(w, x, top):
    w = np.asarray(w)
    x = np.asarray(x)
    if np.issubdtype(w.dtype, np.integer) and np.issubdtype(x.dtype, np.integer):
        w = w.astype(object)
        x = x.astype(object)
    table = {}
    w_m, x_m = w, x
    for m in range(1, top + 1):
        if m > 1:
            w_m = w_m * w
            x_m = x_m * x
        table[m] = w_m @ x_m
    return table


def z_lambda(parts, sums):
    total = 0
    for coeff, block_sums in inclusion_exclusion_terms(parts):
        term = sums[block_sums[0]]
        for m in block_sums[1:]:
            term = term * sums[m]
        total = total + coeff * term
    return total


def pw_matrix(h, w, x, layout):
    inner = (w @ x) / math.sqrt(layout.N0)
    acc = np.full_like(inner, float(h.power_coeffs[-1]))
    for c in reversed([float(c) for c in h.power_coeffs[:-1]]):
        acc = acc * inner
        if c:
            acc = acc + c
    return acc * (math.sqrt(layout.N0) / layout.N)


def decompose(h, w, x, layout, z_lambda=z_lambda):
    """The four parts from the block sums ``z_lambda(parts, power_sums(w, x, h.degree))``.

    The block types are k ones and the rest twos for the linear part (k = 1)
    and the order-k parts, one three and the rest twos for the deformation.
    """
    shape = (layout.N1, layout.N2)
    gamma = math.sqrt(layout.N0) / layout.N
    lin = np.zeros(shape)
    per = {}
    deform = np.zeros(shape)
    sums = power_sums(w, x, h.degree)
    for n, a_n in enumerate(h.power_coeffs):
        if a_n == 0:
            continue
        hn = Polynomial([0] * n + [1])
        scale = gamma * float(layout.N0) ** (-n / 2)
        c_lin = expect_scaled(hn.derivative(1), 1)
        if c_lin != 0:
            lin = lin + float(a_n * c_lin) * scale * z_lambda((2,) * ((n - 1) // 2) + (1,), sums).astype(float)
        for m in range(2, n + 1):
            c_m = expect_scaled(hn.derivative(m), 1) / math.factorial(m)
            if c_m == 0:
                continue
            term = float(a_n * c_m) * scale * z_lambda((2,) * ((n - m) // 2) + (1,) * m, sums).astype(float)
            per[m] = per.get(m, np.zeros(shape)) + term
        if n >= 3:
            c_def = expect_scaled(hn.derivative(3), 1) / 6
            if c_def != 0:
                deform = deform + float(a_n * c_def) * scale * z_lambda((3,) + (2,) * ((n - 3) // 2), sums).astype(float)
    total = pw_matrix(h, w, x, layout)
    eps = total - lin - deform
    for mat in per.values():
        eps = eps - mat
    return Decomposition(lin=lin, per=per, deformation=deform, eps=eps, total=total)
