"""TACO merge lattices vs Stardust bit-vector scanners (Section 9).

The paper contrasts the two co-iteration strategies: "TACO uses an
iteration lattice IR to decompose all unions of coordinates into disjoint
intersections and then emits code that performs a multi-way merge
strategy, whereas Stardust emits scanners through logical operations on
bit vectors."

This example takes one union expression and shows both paths side by side:

* the merge lattice and the while-loop merge code the CPU backend emits,
* the bit-vector/scan pipeline the Capstan backend emits,
* and that a *three-way* union is only expressible on Capstan after the
  iterated-two-input rescheduling (the Plus3 strategy), while TACO's
  lattice handles it natively.

Run:  python examples/coiteration_comparison.py
"""

import numpy as np

from repro.backends import execute_cpu, lower_cpu
from repro.core import compile_stmt
from repro.core.coiteration import LoweringError
from repro.formats import CSR, SPARSE_VECTOR, offChip, onChip
from repro.ir import build_lattice, index_vars
from repro.tensor import Tensor, evaluate_dense, to_dense

N = 24
rng = np.random.default_rng(11)


def sparse(name):
    m = (rng.random((N, N)) < 0.2) * rng.random((N, N))
    return Tensor(name, (N, N), CSR(offChip)).from_dense(m)


B, C, D = sparse("B"), sparse("C"), sparse("D")
i, j, jw = index_vars("i j jw")

# ---------------------------------------------------------------------------
print("=== Two-way union: A = B + C ===\n")
A2 = Tensor("A", (N, N), CSR(offChip))
A2[i, j] = B[i, j] + C[i, j]

lattice = build_lattice(A2.get_assignment().rhs, j)
print("TACO merge lattice:", lattice.describe())
print("full union:", lattice.is_full_union, "\n")

print("--- TACO CPU lowering (one merge while-loop per lattice point) ---")
print(lower_cpu(A2.get_index_stmt(), "plus2d"))

kernel = compile_stmt(A2.get_index_stmt(), "plus2d")
print("--- Stardust Capstan lowering (bit vectors + OR scan) ---")
scan_lines = [
    line for line in kernel.source.splitlines()
    if any(tok in line for tok in ("genBitvector", "Scan(", "BitVector("))
]
print("\n".join(scan_lines))
assert np.allclose(to_dense(kernel.run()),
                   evaluate_dense(A2.get_assignment()))
assert np.allclose(execute_cpu(A2.get_index_stmt()),
                   evaluate_dense(A2.get_assignment()))
print("\nboth backends agree with the dense reference: OK")

# ---------------------------------------------------------------------------
print("\n=== Three-way union: A = B + C + D ===\n")
A3 = Tensor("A3", (N, N), CSR(offChip))
A3[i, j] = B[i, j] + C[i, j] + D[i, j]

lattice3 = build_lattice(A3.get_assignment().rhs, j)
print(f"TACO lattice has {len(lattice3.points)} points (2^3 - 1):")
print(" ", lattice3.describe())
cpu_result = execute_cpu(A3.get_index_stmt())
assert np.allclose(cpu_result, evaluate_dense(A3.get_assignment()))
print("TACO-style CPU executes the 3-way merge natively: OK\n")

try:
    compile_stmt(A3.get_index_stmt(), "plus3_native")
except LoweringError as e:
    print("Capstan rejects the native mapping (two-input scanners):")
    print(" ", e, "\n")

T = Tensor("T", (N,), SPARSE_VECTOR(onChip))
stmt = (
    A3.get_index_stmt()
    .environment("innerPar", 16).environment("outerPar", 8)
    .precompute(B[i, j] + C[i, j], [j], [jw], T)
)
kernel3 = compile_stmt(stmt, "plus3")
assert np.allclose(to_dense(kernel3.run()),
                   evaluate_dense(A3.get_assignment()))
print("After the iterated-two-input reschedule (paper Section 8.1), the")
print("Capstan mapping compiles and matches: OK")
