"""The evaluation kernel suite: the ten expressions of Table 3.

Each :class:`KernelSpec` bundles the tensor-algebra expression, the formats
(including Stardust memory regions), and the schedule used to map the
kernel to Capstan, mirroring how the paper's evaluation drives Stardust.
Builders take pre-packed tensors so the same definitions serve tiny
correctness tests and full-size Table 4 datasets.

Scheduling notes (Section 8.1):

* reductions are precomputed into an on-chip scalar workspace and
  accelerated onto Spatial's ``Reduce`` pattern (Figure 5);
* Plus3 is mapped as an *iterated two-input addition* via an on-chip
  sparse-vector workspace, because mapping it natively would co-iterate
  three compressed operands (beyond Capstan's two-input scanners);
* TTM and MTTKRP reorder their loops so the innermost (vectorised) loop is
  dense, which keeps their dense-factor accesses affine (no shuffle
  network), matching Table 5's resource profile.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable

from repro.formats import SPARSE_VECTOR, format_of, offChip, onChip
from repro.ir import index_vars
from repro.schedule.stmt import INNER_PAR, OUTER_PAR, REDUCTION, SPATIAL, IndexStmt
from repro.tensor import Tensor, scalar
from repro.tensor.storage import TensorStorage

#: Dense factor rank for SDDMM's C/D matrices.
SDDMM_K = 256

#: Dense factor rank for TTM's C and MTTKRP's C/D matrices.
FACTOR_RANK = 16


@dataclasses.dataclass(frozen=True)
class TensorSpec:
    """One kernel operand: how it is accessed and how it is stored."""

    name: str
    role: str  # 'output' | 'sparse' | 'dense' | 'scalar'
    modes: tuple[str, ...]  # index variables of its access; () for a scalar
    format: str | None  # registered format name (``formats.format_of``)

    def make(self, shape: tuple[int, ...]) -> Tensor:
        if not self.modes:
            return scalar(self.name, offChip)
        return Tensor(self.name, shape, format_of(self.format, offChip))


@dataclasses.dataclass(frozen=True)
class KernelSpec:
    """One Table 3 kernel: expression, formats, schedule, and metadata.

    The record is the one definition of a kernel: operand shapes
    (:meth:`shapes`), the format a sparse operand stages in and whether
    the kernel partitions (``pipeline.partition``) all derive from
    ``tensor_specs``.
    """

    name: str
    expression: str  # Table 3 index-notation string
    tensor_specs: tuple[TensorSpec, ...]
    build_stmt: Callable[[dict[str, Tensor], int, int], tuple[IndexStmt, Tensor]]
    input_program: str  # canonical Stardust input (for the LoC comparison)
    paper_par: int  # Table 5 "Par" column (outer parallelization)
    #: (floor, cap) of the dense factor rank the paper leaves unspecified.
    rank: tuple[int, int] = (4, FACTOR_RANK)

    def build(
        self,
        tensors: dict[str, Tensor],
        inner_par: int = 16,
        outer_par: int | None = None,
    ):
        """Construct the scheduled statement for the given operand tensors."""
        op = self.paper_par if outer_par is None else outer_par
        return self.build_stmt(tensors, inner_par, op)

    def input_loc(self) -> int:
        """Lines of Stardust input a user writes (Table 3 metric)."""
        return sum(
            1
            for line in self.input_program.splitlines()
            if line.strip() and not line.strip().startswith("//")
        )

    @property
    def _paper_loc(self) -> tuple[int, int]:
        from repro.eval.paper_results import TABLE3_LOC

        return TABLE3_LOC.get(self.name, (0, 0))

    @property
    def paper_input_loc(self) -> int:
        """Table 3 "Input" column (0 outside the paper's tables)."""
        return self._paper_loc[0]

    @property
    def paper_spatial_loc(self) -> int:
        """Table 3 "Spatial" column (0 outside the paper's tables)."""
        return self._paper_loc[1]

    def of_role(self, role: str) -> tuple[TensorSpec, ...]:
        return tuple(ts for ts in self.tensor_specs if ts.role == role)

    def shapes(self, sparse_dims: tuple[int, ...],
               free: int | None = None) -> dict[str, tuple[int, ...]]:
        """Every operand's shape, from the first sparse operand's dims.

        That operand's index variables bind to ``sparse_dims``; every
        variable still unbound takes ``free``, by default the factor rank
        ``max(floor, min(cap, sparse_dims[0]))`` of :attr:`rank`.
        """
        if free is None:
            floor, cap = self.rank
            free = max(floor, min(cap, sparse_dims[0]))
        extent = dict(zip(self.of_role("sparse")[0].modes, sparse_dims))
        return {ts.name: tuple(extent.get(var, free) for var in ts.modes)
                for ts in self.tensor_specs}

    def operands(self, shapes: dict[str, tuple[int, ...]], sparse: Iterable,
                 dense: Callable[[tuple[int, ...]], object]
                 ) -> dict[str, Tensor]:
        """The operand tensors over ``shapes``, in ``tensor_specs`` order.

        ``sparse`` yields each sparse operand's packed ``TensorStorage``
        or its ``(coords, vals)``; ``dense(shape)`` is called once per
        dense operand for its array. Scalars take the evaluation's
        constants (alpha 2, beta 3) and the output stays empty.
        """
        sparse = iter(sparse)
        tensors: dict[str, Tensor] = {}
        for ts in self.tensor_specs:
            t = tensors[ts.name] = ts.make(shapes[ts.name])
            if ts.role == "scalar":
                t.insert((), 2.0 if "alpha" in ts.name else 3.0)
            elif ts.role == "dense":
                t.from_dense(dense(t.shape))
            elif ts.role == "sparse":
                data = next(sparse)
                if isinstance(data, TensorStorage):
                    t._storage = data
                else:
                    t.from_coo(*data)
        return tensors


def _env(stmt: IndexStmt, ip: int, op: int) -> IndexStmt:
    return stmt.environment(INNER_PAR, ip).environment(OUTER_PAR, op)


# ---------------------------------------------------------------------------
# Kernel builders
# ---------------------------------------------------------------------------


def _spmv(tensors, ip, op):
    A, x, y = tensors["A"], tensors["x"], tensors["y"]
    i, j = index_vars("i j")
    y[i] = A[i, j] * x[j]
    ws = scalar("ws", onChip)
    stmt = _env(y.get_index_stmt(), ip, op)
    stmt = stmt.precompute(A[i, j] * x[j], [], [], ws)
    stmt = stmt.accelerate(j, SPATIAL, REDUCTION, par=INNER_PAR)
    return stmt, y


def _plus3(tensors, ip, op):
    A, B, C, D = tensors["A"], tensors["B"], tensors["C"], tensors["D"]
    i, j, jw = index_vars("i j jw")
    A[i, j] = B[i, j] + C[i, j] + D[i, j]
    T = Tensor("T", (A.shape[1],), SPARSE_VECTOR(onChip))
    stmt = _env(A.get_index_stmt(), ip, op)
    # Iterated two-input addition: T = B + C on chip, then A = T + D.
    stmt = stmt.precompute(B[i, j] + C[i, j], [j], [jw], T)
    return stmt, A


def _sddmm(tensors, ip, op):
    A, B, C, D = tensors["A"], tensors["B"], tensors["C"], tensors["D"]
    i, j, k = index_vars("i j k")
    A[i, j] = B[i, j] * C[i, k] * D[k, j]
    ws = scalar("ws", onChip)
    stmt = _env(A.get_index_stmt(), ip, op)
    stmt = stmt.precompute(B[i, j] * C[i, k] * D[k, j], [], [], ws)
    stmt = stmt.accelerate(k, SPATIAL, REDUCTION, par=INNER_PAR)
    return stmt, A


def _mattransmul(tensors, ip, op):
    A, x, z, y = tensors["A"], tensors["x"], tensors["z"], tensors["y"]
    alpha, beta = tensors["alpha"], tensors["beta"]
    i, j = index_vars("i j")
    term = alpha[()] * A[j, i] * x[j]
    y[i] = term + beta[()] * z[i]
    ws = scalar("ws", onChip)
    stmt = _env(y.get_index_stmt(), ip, op)
    stmt = stmt.precompute(term, [], [], ws)
    stmt = stmt.accelerate(j, SPATIAL, REDUCTION, par=INNER_PAR)
    return stmt, y


def _residual(tensors, ip, op):
    A, x, b, y = tensors["A"], tensors["x"], tensors["b"], tensors["y"]
    i, j = index_vars("i j")
    term = A[i, j] * x[j]
    y[i] = b[i] - term
    ws = scalar("ws", onChip)
    stmt = _env(y.get_index_stmt(), ip, op)
    stmt = stmt.precompute(term, [], [], ws)
    stmt = stmt.accelerate(j, SPATIAL, REDUCTION, par=INNER_PAR)
    return stmt, y


def _ttv(tensors, ip, op):
    A, B, c = tensors["A"], tensors["B"], tensors["c"]
    i, j, k = index_vars("i j k")
    A[i, j] = B[i, j, k] * c[k]
    ws = scalar("ws", onChip)
    stmt = _env(A.get_index_stmt(), ip, op)
    stmt = stmt.precompute(B[i, j, k] * c[k], [], [], ws)
    stmt = stmt.accelerate(k, SPATIAL, REDUCTION, par=INNER_PAR)
    return stmt, A


def _ttm(tensors, ip, op):
    A, B, C = tensors["A"], tensors["B"], tensors["C"]
    i, j, k, l = index_vars("i j k l")
    A[i, j, k] = B[i, j, l] * C[k, l]
    stmt = _env(A.get_index_stmt(), ip, op)
    # Vectorise the dense k loop; keep the compressed l loop outside it so
    # the C(k, l) access stays affine per lane (no shuffle network).
    stmt = stmt.reorder(i, j, l, k)
    return stmt, A


def _mttkrp(tensors, ip, op):
    A, B, C, D = tensors["A"], tensors["B"], tensors["C"], tensors["D"]
    i, j, k, l = index_vars("i j k l")
    A[i, j] = B[i, k, l] * C[j, k] * D[j, l]
    stmt = _env(A.get_index_stmt(), ip, op)
    stmt = stmt.reorder(i, k, l, j)
    return stmt, A


def _innerprod(tensors, ip, op):
    alpha, B, C = tensors["alpha_out"], tensors["B"], tensors["C"]
    i, j, k = index_vars("i j k")
    alpha[()] = B[i, j, k] * C[i, j, k]
    ws = scalar("ws", onChip)
    stmt = _env(alpha.get_index_stmt(), ip, op)
    stmt = stmt.precompute(B[i, j, k] * C[i, j, k], [], [], ws)
    stmt = stmt.accelerate(k, SPATIAL, REDUCTION, par=INNER_PAR)
    return stmt, alpha


def _coo_spmv(tensors, ip, op):
    """SpMV over a COO matrix: one flat position loop with a singleton
    column bind; the dense output scatter-accumulates on chip."""
    A, x, y = tensors["A"], tensors["x"], tensors["y"]
    i, j = index_vars("i j")
    y[i] = A[i, j] * x[j]
    return _env(y.get_index_stmt(), ip, op), y


def _dcsr_spmm(tensors, ip, op):
    """SpMM with a doubly compressed operand: only nonzero rows launch.

    The dense output column loop is vectorised innermost (the TTM
    reorder trick), keeping B's row access affine per lane.
    """
    C, A, B = tensors["C"], tensors["A"], tensors["B"]
    i, j, k = index_vars("i j k")
    C[i, j] = A[i, k] * B[k, j]
    stmt = _env(C.get_index_stmt(), ip, op)
    stmt = stmt.reorder(i, k, j)
    return stmt, C


def _bcsr_spmv(tensors, ip, op):
    """Blocked SpMV: compressed block columns over static b×b tiles.

    The loop order matches BCSR's storage levels (block row, block
    column, tile row, tile column); both tile loops carry compile-time
    trip counts.
    """
    A, x, y = tensors["A"], tensors["x"], tensors["y"]
    I, J, bi, bj = index_vars("I J bi bj")
    y[I, bi] = A[I, J, bi, bj] * x[J, bj]
    stmt = _env(y.get_index_stmt(), ip, op)
    stmt = stmt.reorder(I, J, bi, bj)
    return stmt, y


def _plus2(tensors, ip, op):
    A, B, C = tensors["A"], tensors["B"], tensors["C"]
    i, j, k = index_vars("i j k")
    A[i, j, k] = B[i, j, k] + C[i, j, k]
    stmt = _env(A.get_index_stmt(), ip, op)
    return stmt, A


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

_SPECS = [
    KernelSpec(
        name="SpMV",
        expression="y(i) = sum_j A(i,j) * x(j)",
        tensor_specs=(
            TensorSpec("y", "output", ("i",), "dense1"),
            TensorSpec("A", "sparse", ("i", "j"), "csr"),
            TensorSpec("x", "dense", ("j",), "dense1"),
        ),
        build_stmt=_spmv,
        input_program="""\
Format csr_off = CSR(offChip);
Tensor A({N, N}, csr_off);
Tensor x({N}, dense_off);  Tensor y({N}, dense_off);
y(i) = A(i, j) * x(j);
IndexStmt stmt = y.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 16);
Tensor ws(on);
stmt = stmt.precompute(A(i,j) * x(j), {}, {}, ws);
stmt = stmt.accelerate(forall(j, ws += A*x), Spatial, Reduction, innerPar);
std::cout << y << std::endl;
""",
        paper_par=16,
    ),
    KernelSpec(
        name="Plus3",
        expression="A(i,j) = B(i,j) + C(i,j) + D(i,j)",
        tensor_specs=(
            TensorSpec("A", "output", ("i", "j"), "csr"),
            TensorSpec("B", "sparse", ("i", "j"), "csr"),
            TensorSpec("C", "sparse", ("i", "j"), "csr"),
            TensorSpec("D", "sparse", ("i", "j"), "csr"),
        ),
        build_stmt=_plus3,
        input_program="""\
Tensor A({N, N}, csr_off);  Tensor B({N, N}, csr_off);
Tensor C({N, N}, csr_off);  Tensor D({N, N}, csr_off);
A(i, j) = B(i, j) + C(i, j) + D(i, j);
IndexStmt stmt = A.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 8);
Tensor T({N}, sparse_on);
stmt = stmt.precompute(B(i,j) + C(i,j), {j}, {jw}, T);
std::cout << A << std::endl;
""",
        paper_par=8,
    ),
    KernelSpec(
        name="SDDMM",
        expression="A(i,j) = sum_k B(i,j) * C(i,k) * D(k,j)",
        tensor_specs=(
            TensorSpec("A", "output", ("i", "j"), "csr"),
            TensorSpec("B", "sparse", ("i", "j"), "csr"),
            TensorSpec("C", "dense", ("i", "k"), "dense2"),
            TensorSpec("D", "dense", ("k", "j"), "dense2_cm"),
        ),
        build_stmt=_sddmm,
        input_program="""\
Format csr_off({uncompressed, compressed}, offChip);
Format rm_off({uncompressed, uncompressed}, offChip);
Format cm_off({uncompressed, uncompressed}, {1, 0}, offChip);
Tensor A({N, N}, csr_off);  Tensor B({N, N}, csr_off);
Tensor C({N, K}, rm_off);   Tensor D({K, N}, cm_off);
A(i, j) = B(i, j) * C(i, k) * D(k, j);
IndexStmt stmt = A.getAssignment();
stmt = stmt.environment(innerPar, 16);
stmt = stmt.environment(outerPar, 12);
Tensor ws(on);
stmt = stmt.precompute(B(i,j) * C(i,k) * D(k,j), {}, {}, ws);
stmt = stmt.accelerate(forall(k, ws += B*C*D), Spatial, Reduction, innerPar);
std::cout << A << std::endl;
""",
        paper_par=12,
        rank=(8, SDDMM_K),
    ),
    KernelSpec(
        name="MatTransMul",
        expression="y(i) = sum_j alpha * A(j,i) * x(j) + beta * z(i)",
        tensor_specs=(
            TensorSpec("y", "output", ("i",), "dense1"),
            TensorSpec("A", "sparse", ("j", "i"), "csc"),
            TensorSpec("x", "dense", ("j",), "dense1"),
            TensorSpec("z", "dense", ("i",), "dense1"),
            TensorSpec("alpha", "scalar", (), None),
            TensorSpec("beta", "scalar", (), None),
        ),
        build_stmt=_mattransmul,
        input_program="""\
Format csc_off({uncompressed, compressed}, {1, 0}, offChip);
Tensor A({N, N}, csc_off);
Tensor x({N}, dense_off);  Tensor z({N}, dense_off);  Tensor y({N}, dense_off);
Tensor alpha(off);  Tensor beta(off);
y(i) = alpha() * A(j, i) * x(j) + beta() * z(i);
IndexStmt stmt = y.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 16);
Tensor ws(on);
stmt = stmt.precompute(alpha() * A(j,i) * x(j), {}, {}, ws);
stmt = stmt.accelerate(forall(j, ws += alpha*A*x), Spatial, Reduction, innerPar);
std::cout << y << std::endl;
""",
        paper_par=16,
    ),
    KernelSpec(
        name="Residual",
        expression="y(i) = b(i) - sum_j A(i,j) * x(j)",
        tensor_specs=(
            TensorSpec("y", "output", ("i",), "dense1"),
            TensorSpec("A", "sparse", ("i", "j"), "csr"),
            TensorSpec("x", "dense", ("j",), "dense1"),
            TensorSpec("b", "dense", ("i",), "dense1"),
        ),
        build_stmt=_residual,
        input_program="""\
Tensor A({N, N}, csr_off);
Tensor x({N}, dense_off);  Tensor b({N}, dense_off);  Tensor y({N}, dense_off);
y(i) = b(i) - A(i, j) * x(j);
IndexStmt stmt = y.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 16);
Tensor ws(on);
stmt = stmt.precompute(A(i,j) * x(j), {}, {}, ws);
stmt = stmt.accelerate(forall(j, ws += A*x), Spatial, Reduction, innerPar);
std::cout << y << std::endl;
""",
        paper_par=16,
    ),
    KernelSpec(
        name="TTV",
        expression="A(i,j) = sum_k B(i,j,k) * c(k)",
        tensor_specs=(
            TensorSpec("A", "output", ("i", "j"), "dcsr"),
            TensorSpec("B", "sparse", ("i", "j", "k"), "csf"),
            TensorSpec("c", "dense", ("k",), "dense1"),
        ),
        build_stmt=_ttv,
        input_program="""\
Format csf_off({compressed, compressed, compressed}, offChip);
Format dcsr_off({compressed, compressed}, offChip);
Tensor B({I, J, K}, csf_off);
Tensor c({K}, dense_off);
Tensor A({I, J}, dcsr_off);
A(i, j) = B(i, j, k) * c(k);
IndexStmt stmt = A.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 16);
Tensor ws(on);
stmt = stmt.precompute(B(i,j,k) * c(k), {}, {}, ws);
stmt = stmt.accelerate(forall(k, ws += B*c), Spatial, Reduction, innerPar);
std::cout << A << std::endl;
""",
        paper_par=16,
    ),
    KernelSpec(
        name="TTM",
        expression="A(i,j,k) = sum_l B(i,j,l) * C(k,l)",
        tensor_specs=(
            TensorSpec("A", "output", ("i", "j", "k"), "ccd"),
            TensorSpec("B", "sparse", ("i", "j", "l"), "csf"),
            TensorSpec("C", "dense", ("k", "l"), "dense2"),
        ),
        build_stmt=_ttm,
        input_program="""\
Format csf_off({compressed, compressed, compressed}, offChip);
Format ccd_off({compressed, compressed, uncompressed}, offChip);
Tensor B({I, J, L}, csf_off);
Tensor C({K, L}, rm_off);
Tensor A({I, J, K}, ccd_off);
A(i, j, k) = B(i, j, l) * C(k, l);
IndexStmt stmt = A.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 12);
stmt = stmt.reorder(i, j, l, k);
std::cout << A << std::endl;
""",
        paper_par=12,
    ),
    KernelSpec(
        name="MTTKRP",
        expression="A(i,j) = sum_kl B(i,k,l) * C(j,k) * D(j,l)",
        tensor_specs=(
            TensorSpec("A", "output", ("i", "j"), "dense2"),
            TensorSpec("B", "sparse", ("i", "k", "l"), "csf"),
            TensorSpec("C", "dense", ("j", "k"), "dense2"),
            TensorSpec("D", "dense", ("j", "l"), "dense2"),
        ),
        build_stmt=_mttkrp,
        input_program="""\
Format csf_off({compressed, compressed, compressed}, offChip);
Tensor B({I, K, L}, csf_off);
Tensor C({J, K}, rm_off);  Tensor D({J, L}, rm_off);
Tensor A({I, J}, rm_off);
A(i, j) = B(i, k, l) * C(j, k) * D(j, l);
IndexStmt stmt = A.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 8);
stmt = stmt.reorder(i, k, l, j);
std::cout << A << std::endl;
""",
        paper_par=8,
    ),
    KernelSpec(
        name="InnerProd",
        expression="alpha = sum_ijk B(i,j,k) * C(i,j,k)",
        tensor_specs=(
            TensorSpec("alpha_out", "output", (), None),
            TensorSpec("B", "sparse", ("i", "j", "k"), "ucc"),
            TensorSpec("C", "sparse", ("i", "j", "k"), "ucc"),
        ),
        build_stmt=_innerprod,
        input_program="""\
Format ucc_off({uncompressed, compressed, compressed}, offChip);
Tensor B({I, J, K}, ucc_off);  Tensor C({I, J, K}, ucc_off);
Tensor alpha(off);
alpha() = B(i, j, k) * C(i, j, k);
IndexStmt stmt = alpha.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 8);
Tensor ws(on);
stmt = stmt.precompute(B(i,j,k) * C(i,j,k), {}, {}, ws);
stmt = stmt.accelerate(forall(k, ws += B*C), Spatial, Reduction, innerPar);
std::cout << alpha << std::endl;
""",
        paper_par=8,
    ),
    KernelSpec(
        name="Plus2",
        expression="A(i,j,k) = B(i,j,k) + C(i,j,k)",
        tensor_specs=(
            TensorSpec("A", "output", ("i", "j", "k"), "ucc"),
            TensorSpec("B", "sparse", ("i", "j", "k"), "ucc"),
            TensorSpec("C", "sparse", ("i", "j", "k"), "ucc"),
        ),
        build_stmt=_plus2,
        input_program="""\
Format ucc_off({uncompressed, compressed, compressed}, offChip);
Tensor A({I, J, K}, ucc_off);
Tensor B({I, J, K}, ucc_off);  Tensor C({I, J, K}, ucc_off);
A(i, j, k) = B(i, j, k) + C(i, j, k);
IndexStmt stmt = A.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 1);
std::cout << A << std::endl;
""",
        paper_par=1,
    ),
]

#: Format-sweep kernels: the Table 3 matrix workloads re-expressed over
#: the COO/DCSR/BCSR whole-tensor formats enabled by the singleton and
#: block level formats. They are not part of the paper's tables (no
#: ``paper_results`` rows), so they live outside KERNEL_ORDER.
_FORMAT_SPECS = [
    KernelSpec(
        name="COO-SpMV",
        expression="y(i) = sum_j A(i,j) * x(j)  [A: COO]",
        tensor_specs=(
            TensorSpec("y", "output", ("i",), "dense1"),
            TensorSpec("A", "sparse", ("i", "j"), "coo"),
            TensorSpec("x", "dense", ("j",), "dense1"),
        ),
        build_stmt=_coo_spmv,
        input_program="""\
Format coo_off({compressed(non-unique), singleton}, offChip);
Tensor A({N, N}, coo_off);
Tensor x({N}, dense_off);  Tensor y({N}, dense_off);
y(i) = A(i, j) * x(j);
IndexStmt stmt = y.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 1);
std::cout << y << std::endl;
""",
        paper_par=1,
    ),
    KernelSpec(
        name="DCSR-SpMM",
        expression="C(i,j) = sum_k A(i,k) * B(k,j)  [A: DCSR]",
        tensor_specs=(
            TensorSpec("C", "output", ("i", "j"), "dense2"),
            TensorSpec("A", "sparse", ("i", "k"), "dcsr"),
            TensorSpec("B", "dense", ("k", "j"), "dense2"),
        ),
        build_stmt=_dcsr_spmm,
        input_program="""\
Format dcsr_off({compressed, compressed}, offChip);
Tensor A({N, N}, dcsr_off);
Tensor B({N, R}, rm_off);  Tensor C({N, R}, rm_off);
C(i, j) = A(i, k) * B(k, j);
IndexStmt stmt = C.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 8);
stmt = stmt.reorder(i, k, j);
std::cout << C << std::endl;
""",
        paper_par=8,
    ),
    KernelSpec(
        name="BCSR-SpMV",
        expression="y(I,bi) = sum_Jbj A(I,J,bi,bj) * x(J,bj)  [A: BCSR]",
        tensor_specs=(
            TensorSpec("y", "output", ("I", "bi"), "dense2"),
            TensorSpec("A", "sparse", ("I", "J", "bi", "bj"), "bcsr"),
            TensorSpec("x", "dense", ("J", "bj"), "dense2"),
        ),
        build_stmt=_bcsr_spmv,
        input_program="""\
Format bcsr_off({uncompressed, compressed, block[4], block[4]}, offChip);
Tensor A({N/4, N/4, 4, 4}, bcsr_off);
Tensor x({N/4, 4}, rm_off);  Tensor y({N/4, 4}, rm_off);
y(I, bi) = A(I, J, bi, bj) * x(J, bj);
IndexStmt stmt = y.getAssignment();
stmt = stmt.environment(innerPar, 16).environment(outerPar, 8);
stmt = stmt.reorder(I, J, bi, bj);
std::cout << y << std::endl;
""",
        paper_par=8,
    ),
]

KERNELS: dict[str, KernelSpec] = {
    spec.name: spec for spec in (*_SPECS, *_FORMAT_SPECS)
}

#: Kernel evaluation order used throughout the paper's tables.
KERNEL_ORDER = tuple(spec.name for spec in _SPECS)

#: The format-sweep kernels (plus the CSR baseline, see eval.harness).
FORMAT_KERNEL_ORDER = tuple(spec.name for spec in _FORMAT_SPECS)


def get_kernel(name: str) -> KernelSpec:
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; choose from {KERNEL_ORDER}")
