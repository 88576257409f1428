"""The dense n x n form of a tridiagonal operator, for the tests that hold
the program's three-diagonal routines to numpy's dense ones.  The program
forms no n x n matrix, so this lives beside the tests that use it."""
import numpy as np


def dense(op) -> np.ndarray:
    """op's matrix, float64: diag on the diagonal, upper above it and lower
    below it, zeros elsewhere (each entry placed, so a -0.0 keeps its sign)."""
    n = op.diag.size
    M = np.zeros((n, n))
    idx = np.arange(n)
    M[idx, idx] = op.diag
    M[idx[:-1], idx[1:]] = op.upper
    M[idx[1:], idx[:-1]] = op.lower
    return M
