"""Golden digests of every kernel design and of the Poisson grid.

The fast-vs-cycle differential harness compares two modes that share
each kernel's front end (validation, lane padding, the multiplier
products and the adder-tree fold), so a change to that front end moves
both modes alike and passes it.  These tests pin the sha256 of every
field of each ``DotProductRun``, ``MvmRun``, ``SpmxvRun``,
``MultiFpgaRun`` and ``MatrixMultiplyRun`` on an edge grid — k = 1,
odd k, n not a multiple of k, a throttled dot, blocked gemv in both
storage orders, empty sparse rows, asum, gangs with one and two
b-blocks per side (one of them folding each C′ in two row bands),
single-blade gemm with one to three m-blocks per side on zero-padded
operands and on short and rectangular operands that the array pads
itself — so the values and cycle counts must match the code that
recorded them.  Every case must produce the same
digest in both sim modes, except asum, which has no fast mode, and
single-blade gemm, which has no ``sim_mode``: its non-strict run is
pinned everywhere and its ``strict=True`` per-MAC replay, whose cycle
counters differ, for n <= 32.  The short single-blade cases were
recorded by zero-padding the operands to n×n, as ``BlasCall`` did
before the array took the padding over, and cropping C to p×r.  The
arrays of ``poisson_2d``, which every serve spmxv and cg request
streams, are pinned byte for byte.

Operands come from integer arithmetic and one IEEE division each, not
from an RNG, so the digests hold on any host and NumPy version.  The
gang's operands are small integers: every product and partial sum is
then exact, so its digests do not depend on the BLAS kernel that
computes the block products.  Single-blade gemm calls no BLAS, so its
digests hold for any operands.
"""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from repro.blas.level1 import DotProductDesign
from repro.blas.level1_ext import AsumDesign
from repro.blas.level2 import ColumnMajorMvmDesign, TreeMvmDesign
from repro.blas.level3 import MatrixMultiplyDesign
from repro.blas.multi_fpga import MultiFpgaMatrixMultiply
from repro.sparse.csr import CsrMatrix
from repro.sparse.spmxv import SpmxvDesign
from repro.workloads import poisson_2d


def _vec(n, salt):
    return np.array([((i * 7919 + salt) % 1009 - 504) / 1013
                     for i in range(n)])


def _int_matrix(n, salt):
    """n×n of small integers in [-8, 8]."""
    return np.array([(i * 7919 + salt) % 17 - 8
                     for i in range(n * n)], dtype=np.float64).reshape(n, n)


def _digest(run):
    """sha256 over every dataclass field of a run, by name and bytes."""
    h = hashlib.sha256()
    for field in dataclasses.fields(run):
        value = getattr(run, field.name)
        h.update(field.name.encode())
        if isinstance(value, np.ndarray):
            h.update(repr(value.shape).encode())
            h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
        elif isinstance(value, (float, np.floating)):
            h.update(struct.pack("<d", float(value)))
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _sparse_with_empty_rows():
    """41×30 with rows 0, 5, …, 40 empty (leading and trailing) and
    the rest holding 8 or 9 nonzeros."""
    nrows, ncols = 41, 30
    dense = np.zeros((nrows, ncols))
    for i in range(nrows):
        if i % 5 == 0:
            continue
        for j in range(ncols):
            if (i * 31 + j * 17) % 7 < 2:
                dense[i, j] = ((i * ncols + j) * 389 % 1009 - 504) / 1013
    return CsrMatrix.from_dense(dense)


DOT_KS = (1, 2, 3, 4, 8)
DOT_NS = (1, 7, 64, 1000)
GEMV_KS = (1, 3, 4, 8)
GEMV_NS = (5, 64, 250)
SPMXV_KS = (1, 3, 4, 8)
SPARSE = {"poisson12": lambda: poisson_2d(12),
          "empty_rows": _sparse_with_empty_rows}
COLUMN_KS = (1, 2, 4, 8)
COLUMN_NCOLS = 37
ASUM_KS = (1, 2, 3, 4, 8)
ASUM_NS = (1, 7, 64, 1000)
#: (n, l, k, m, b); three of them have two b-blocks per side, and the
#: last folds each C′ in two row bands in fast mode (b = 384, m = 32).
GANGS = ((64, 2, 8, 8, 64), (64, 4, 8, 16, 64), (128, 3, 8, 16, 64),
         (96, 6, 4, 8, 48), (128, 1, 8, 32, 128), (768, 6, 8, 32, 384))
#: Single-blade gemm (n, k, m, p): n×n operands whose leading p×p
#: block holds data and the rest is zero padding, as the executing
#: path pads a call to a multiple of m.  n/m is 1, 2 or 3.
GEMMS = ((16, 2, 16, 16), (16, 4, 16, 13), (16, 4, 8, 11),
         (32, 4, 16, 32), (32, 8, 16, 24), (24, 1, 8, 24),
         (36, 3, 12, 36), (48, 8, 16, 40), (96, 8, 32, 96),
         (128, 8, 64, 96))
#: The strict per-MAC replay steps every cycle; it runs for n <= 32.
STRICT_MAX_N = 32
#: Single-blade gemm on operands as a call gives them, A p×q and B q×r
#: (p, q, r, k, m, strict); the array pads them to n×n itself.  No p,
#: q or r is a multiple of m, (5, 3, 9) has q < m, and (370, 50, 381)
#: has p·r over the sweep's product block, so each einsum forms one z.
SHORT_GEMMS = ((13, 20, 7, 4, 8, False), (5, 3, 9, 2, 8, False),
               (40, 24, 17, 8, 16, False), (24, 24, 24, 4, 16, False),
               (97, 70, 100, 8, 32, False), (370, 50, 381, 8, 32, False),
               (11, 6, 13, 4, 8, True), (20, 9, 30, 4, 16, True))
POISSON_GRIDS = (1, 2, 3, 7, 16, 20)


def _dot_design(k, throttled):
    # 1.5k words/cycle starves the 2k-word issue every few cycles.
    return DotProductDesign(k=k, words_per_cycle=1.5 * k if throttled
                            else None)


def _dot_operands(n):
    return _vec(n, 11), _vec(n, 503)


def _gemv_operands(n):
    return _vec(n * n, 17).reshape(n, n), _vec(n, 211)


def _column_operands(nrows):
    return (_vec(nrows * COLUMN_NCOLS, 23).reshape(nrows, COLUMN_NCOLS),
            _vec(COLUMN_NCOLS, 307))


def _gemm_operands(n, p):
    """A and B zero-padded from p×p to n×n.  Row 1 of A is -0.0 across
    the padding too, and column 2 of B is zero, so C[1, 2] sums only
    -0.0 products: it reads +0.0 only if every cell starts from +0.0."""
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    A[:p, :p] = _vec(p * p, 37).reshape(p, p)
    B[:p, :p] = _vec(p * p, 401).reshape(p, p)
    A[1, :] = -0.0
    B[:, 2] = 0.0
    return A, B


def _short_gemm_operands(p, q, r):
    """A (p×q) and B (q×r) unpadded, with the signed-zero row of A and
    the zero column of B of :func:`_gemm_operands`."""
    A = _vec(p * q, 43).reshape(p, q)
    B = _vec(q * r, 409).reshape(q, r)
    A[1, :] = -0.0
    B[:, 2] = 0.0
    return A, B


def _cases():
    for k in DOT_KS:
        for n in DOT_NS:
            for throttled in (False, True):
                tag = "-throttled" if throttled else ""
                yield f"dot-k{k}-n{n}{tag}", ("dot", k, n, throttled)
    for k in GEMV_KS:
        for n in GEMV_NS:
            for block in (None, 64):
                tag = f"-b{block}" if block else ""
                yield f"gemv-k{k}-n{n}{tag}", ("gemv", k, n, block)
    for k in SPMXV_KS:
        for name in sorted(SPARSE):
            yield f"spmxv-k{k}-{name}", ("spmxv", k, name, None)
    # Column-major gemv, every case hazard-free (n/k >= alpha_add).
    for k in COLUMN_KS:
        for nrows in (14 * k, 20 * k + 3, 256):
            yield (f"gemv-column-k{k}-r{nrows}",
                   ("gemv-column", k, nrows, None))
        yield (f"gemv-column-k{k}-r256-b{16 * k}",
               ("gemv-column", k, 256, 16 * k))
    for n, l, k, m, b in GANGS:
        yield f"gang-n{n}-l{l}-k{k}-m{m}-b{b}", ("gang", k, n, (l, m, b))
    for k in ASUM_KS:
        for n in ASUM_NS:
            yield f"asum-k{k}-n{n}", ("asum", k, n, None)
    for n, k, m, p in GEMMS:
        name = f"gemm-n{n}-k{k}-m{m}-p{p}"
        yield name, ("gemm", k, n, (m, p, False))
        if n <= STRICT_MAX_N:
            yield f"{name}-strict", ("gemm", k, n, (m, p, True))
    for p, q, r, k, m, strict in SHORT_GEMMS:
        tag = "-strict" if strict else ""
        yield (f"gemm-p{p}-q{q}-r{r}-k{k}-m{m}{tag}",
               ("gemm-short", k, (p, q, r), (m, strict)))


CASES = dict(_cases())


def _run(case, mode):
    """The case's run object, stepped (``cycle``) or fast-forwarded."""
    op, k, size, extra = CASES[case]
    if op == "dot":
        u, v = _dot_operands(size)
        return _dot_design(k, throttled=extra).run(u, v, sim_mode=mode)
    if op in ("gemv", "gemv-column"):
        if op == "gemv":
            design = TreeMvmDesign(k=k)
            A, x = _gemv_operands(size)
        else:
            design = ColumnMajorMvmDesign(k=k)
            A, x = _column_operands(size)
        if extra:
            return design.run_blocked(A, x, extra, sim_mode=mode)
        return design.run(A, x, sim_mode=mode)
    if op == "gang":
        l, m, b = extra
        design = MultiFpgaMatrixMultiply(l=l, k=k, m=m, b=b)
        return design.run(_int_matrix(size, 5), _int_matrix(size, 13),
                          sim_mode=mode)
    if op == "asum":
        return AsumDesign(k=k).run(_vec(size, 29))
    if op == "gemm":
        m, p, strict = extra
        return MatrixMultiplyDesign(k=k, m=m).run(
            *_gemm_operands(size, p), strict=strict)
    if op == "gemm-short":
        m, strict = extra
        return MatrixMultiplyDesign(k=k, m=m).run(
            *_short_gemm_operands(*size), strict=strict)
    design = SpmxvDesign(k=k)
    matrix = SPARSE[size]()
    return design.run(matrix, _vec(matrix.ncols, 907), sim_mode=mode)


#: sha256 of every field of the run, per case, recorded in cycle mode
#: (a non-strict gemm in its one mode).
GOLDEN = {
    "asum-k1-n1":
        "48a0869578934b2fbc96105141b91c3eae6be719dcd1819e661e956b1239bd54",
    "asum-k1-n1000":
        "6e0962bc89d93265918393332266d2e915957f231e3c56145120953f738e5071",
    "asum-k1-n64":
        "94d01a0c82caef3311d9a6207e595e223eebc2706eebf01950fdc4286a9b7ab5",
    "asum-k1-n7":
        "a982d7f9e42d3f0bcd898c0331969d385d7b85420e2622b3d7a2c3ae7dd02721",
    "asum-k2-n1":
        "b01bad8a188f64ac20c415c15e4b738578f134b65bf31e0f7aafad88a9bea3e5",
    "asum-k2-n1000":
        "1aa62f4ca489020f4b8262b2985506315480644182b4cb26c94b48ce6661413f",
    "asum-k2-n64":
        "8c35ddfa66160e66128132f3a76d60c5bd5541fcab901b579de6e498839d5afa",
    "asum-k2-n7":
        "daeca552f472c3321f1014819e5264a8e69bac5044d7519744efcc4bbce54106",
    "asum-k3-n1":
        "283bf1af943be0ec2482c6f02d7cf890c7460041d44f07fc408db333809ae3d1",
    "asum-k3-n1000":
        "5d5c98cd8673637b7ab7066ae43f8a03ddf5834ba9e827db49da3ab35eaf42d1",
    "asum-k3-n64":
        "d5fc1552dd291496641e30fa77b5325d92d2afd730c7f921c3d7da5b7b9eca53",
    "asum-k3-n7":
        "1c1ff7398770cd0600f8499d1f80ec16b8e496687657613d6e7b77863d015ba4",
    "asum-k4-n1":
        "537565aca9c336c122e2676ac5bf8342ebe0bdf66be894450750edb744fd506d",
    "asum-k4-n1000":
        "3fef83b5f20b65957334bce31aa043079249ee3f00ce5d0c17b3620b75d1c473",
    "asum-k4-n64":
        "b31e6f2a545811875b75007b9e662505f26f4d1b305244072aa8d618c8cd2ba8",
    "asum-k4-n7":
        "ef2a9a82650a710d11c97d14e2537ff97139042ee779e1e9de94b0c13559c056",
    "asum-k8-n1":
        "92a2bee5fc438ca30cbf62f0e82ae6e7b00a77d8cd075e63ed87194c680ed4f6",
    "asum-k8-n1000":
        "5e5d2623ad9b61a5445ba00e2e96bbb0c5846677052089959229e49604992059",
    "asum-k8-n64":
        "02496319c734da935bf5b1d536806980f05951a30765f4972354589a6cdeb557",
    "asum-k8-n7":
        "30853fb5ffbc2ccd5f55d7a976d06f3fcabc105081ed84a23716b75ab587895d",
    "dot-k1-n1":
        "35ec1d28dfc915ec5ee3452329e09cf39c1411c18245c0bbf11720de7ec04ce2",
    "dot-k1-n1-throttled":
        "5fc9dff98e2573db4a35cd5657cd78161015aad093270315823715c96f88c00d",
    "dot-k1-n1000":
        "c3cffbd86399acf4830d47306d804ce942d5089b1c2cee489904530489a8ff77",
    "dot-k1-n1000-throttled":
        "134bf368ca61dc534c23cc07cb580c1910500dc0a89940f9d50b8018c1512f03",
    "dot-k1-n64":
        "c511b54ea2b30290c46e8ae46dfc63392bfcc0a5fe6e0fc775584b570c0d3b51",
    "dot-k1-n64-throttled":
        "5cface23cc6ba921e2696d2ce0fe26e34dcc2585b206afee77970cf157e05157",
    "dot-k1-n7":
        "2be8a6109fbabe35389ca37e6c3585a44e446dc5e50252dcf685785c876a8f60",
    "dot-k1-n7-throttled":
        "a97b4fb375f97c9e834d1fdced1f9f8ad9e46a3d434ff96217aa716cc4727aaf",
    "dot-k2-n1":
        "b186d40c890a8aee61cee89633f8541358f3ce886d8a675a9d750add4167de68",
    "dot-k2-n1-throttled":
        "c2a559e4e06cdb441f6b4022afe7b1819f5bdbcf018b948fb29d3fcca9e55470",
    "dot-k2-n1000":
        "7c92fbee928d9d9bb485055ec1a8ec8e272ac019f87afbfad607a80952458b11",
    "dot-k2-n1000-throttled":
        "82123bd944feb32662b5bf7275ecec49f936baf20fcfca30544dea55c07c58c8",
    "dot-k2-n64":
        "7b7443afc044d6fad2f43b1a31336a01b63f662b3c5ad6d7426ff38fbc8bb8ca",
    "dot-k2-n64-throttled":
        "ebb1aa661b9bfd4e449adb800b08b50c720b681a37c7fd090021f2997fcda292",
    "dot-k2-n7":
        "750cd77a4737231eff5f704c2875f04effd4b87bcb659a1acc2c436b07012490",
    "dot-k2-n7-throttled":
        "5ca4ae967ee854f566b308111accfdb45c8f669a387aa7a24e6e722426ad2e69",
    "dot-k3-n1":
        "1b30a8b3111f43569b06ed0fdfff49a7e62de97612077a1b469fa7e1c1e936cc",
    "dot-k3-n1-throttled":
        "6463c50ec6492ffefa035052a66609aaf8f697d543f315f3ca25d86ae4ad0bf8",
    "dot-k3-n1000":
        "98f33bb458f069399b711ee994d4c098843a190505f769289a4ef187fc58bdf3",
    "dot-k3-n1000-throttled":
        "1720aafcdbb5fcee2d07a1618576ae13db0df370412880b3c898a028811e44ba",
    "dot-k3-n64":
        "064c6084b619d7802718b395019c71f971e3232d064aba6974443f28e8735453",
    "dot-k3-n64-throttled":
        "db3b53279df15deb5a5ed363da0721d29e643c6409a259b570c051e00faa8c0a",
    "dot-k3-n7":
        "248715fbb1ab0be85cee96b9e5ffe024c5eae66a56cc1cb62996b84d2b3bc3df",
    "dot-k3-n7-throttled":
        "f1ce458ea7edc1f1135fc314fa7d981f2382f821c256137a1a5f0749ecde3df2",
    "dot-k4-n1":
        "383428c3a556b8ce83d1821720dc39220d45399a370c51dded7a0739bcf3a0a5",
    "dot-k4-n1-throttled":
        "bc89202e3531e1a7078f402c160df9dd164e85d305c950245f69e8b16820cb6f",
    "dot-k4-n1000":
        "59e1efd5af8f6cc87b5c062de65bea88adbdd09f6e9976499e8080350231155d",
    "dot-k4-n1000-throttled":
        "e3fac4a596a82fff9ceff293388e77ca6c1dda41406e8fa3d6bf1013a8532f79",
    "dot-k4-n64":
        "44f825d1aa522ea6e693e26bb0c89a2a86a7b27ae49dd7a1638b6537eec45eec",
    "dot-k4-n64-throttled":
        "92ec69cd74b85eb69c2c248dd9e6f20d2b553e9b0f4094c333c64890e0e9e2a4",
    "dot-k4-n7":
        "42aa6254d6c98ebdb5f7d79c3bc763891f196eef5011ead304c59532efd1c69f",
    "dot-k4-n7-throttled":
        "8822c5e93e9cd49abc0e50a74363b61925cadf69e2d8e17208f2d91aa571a7eb",
    "dot-k8-n1":
        "850341ec33da8a7c0c42aa8252f4b9fa7d8fb5bc659480b12293857f98210b9f",
    "dot-k8-n1-throttled":
        "85fa498e822366ea5b1e90ba98c8bf2178e363a6d1921f50ce409f90ba1158e7",
    "dot-k8-n1000":
        "7950dd32f6cf3f8c56ac9e69e5dd1b1efe078e328d99ee4c3946e814abf3b1a8",
    "dot-k8-n1000-throttled":
        "12922a7b7c9d73f5a9370f8c4401823f2a26cdd7171918f3a818dc3dfe0c8221",
    "dot-k8-n64":
        "3ccf9782d36f6e00eb52af7930db30d4b70a3b4b42f21ba0141c8f23279cad3a",
    "dot-k8-n64-throttled":
        "170d749e2414cc443e7172311a242dce940831086e3a1b36dfd3009cad01410a",
    "dot-k8-n7":
        "2a823e2fa9fc81ca8e65a38f1cd40b55fa4907d1dab0b6784f21f76b5060958d",
    "dot-k8-n7-throttled":
        "805c2db7d7e28a30213d9695de2b168404140429ae8dca71c458b1f64236cd53",
    "gang-n128-l1-k8-m32-b128":
        "5e0067dc3f67d782bdd17544977bac3dd2d5424c300b8c5c53d187d70c9e28f5",
    "gang-n128-l3-k8-m16-b64":
        "582e4c4220343a585c449b44097ef58371c378617e4398ddc891a255c96c7234",
    "gang-n64-l2-k8-m8-b64":
        "b1001ce54d575de411a1ffab1b0ac11baa51062d26e4a3e59c375dadf46818ff",
    "gang-n64-l4-k8-m16-b64":
        "987392d1620f5d93bfbcabac1eaa15446a4da9b9505b3787fcae8140cf5d6da9",
    "gang-n768-l6-k8-m32-b384":
        "5f12b588d06ce416d9a0a9d766084db10315296b732fa589e91070879085973c",
    "gang-n96-l6-k4-m8-b48":
        "5c5eea217aa7f665729c4fe944a248dc5cc1475faaae1d782393f28c07118d3d",
    "gemm-n128-k8-m64-p96":
        "6e507248abb9c3d10cdae31054c9bbf52adcc315e46b74c87076eb74aa536052",
    "gemm-n16-k2-m16-p16":
        "874a00404620b132fdf6b3b0d590138b9eba02937d14e0b89b49834acaad90a5",
    "gemm-n16-k2-m16-p16-strict":
        "5f5396adbc6583f767f8daa3c042bb479df5a4dabd62e7f2389933d7043c0b56",
    "gemm-n16-k4-m16-p13":
        "db0e30faa98242f571ccbce8e181bb18b3bda0036622c5dad4a0a14248ad1859",
    "gemm-n16-k4-m16-p13-strict":
        "24c9834e5e0e1f7e02a3a987d4cce93307f0d089d6eccdebf5067ee820dcde6f",
    "gemm-n16-k4-m8-p11":
        "5163092419c6bf959aa5a6ff445dce80294043dbcea0de4696c967f304c124fb",
    "gemm-n16-k4-m8-p11-strict":
        "c004c78b7ddbb54b667072c6d298a93b94157bd6d16340c2971e2f71e709970a",
    "gemm-n24-k1-m8-p24":
        "4a3e8ac7c54ad512a8373848c3b82b5a34ff9c6b6821253444ac094a860c112d",
    "gemm-n24-k1-m8-p24-strict":
        "4a3e8ac7c54ad512a8373848c3b82b5a34ff9c6b6821253444ac094a860c112d",
    "gemm-n32-k4-m16-p32":
        "eaa539b8bd4689a6c627a6c7f3d245491bf800fb433359de39e264e6e1b67b5b",
    "gemm-n32-k4-m16-p32-strict":
        "99cd64a6fd9377711f95416d0784904da7e47696faa1e92517e5b7f0491dffca",
    "gemm-n32-k8-m16-p24":
        "8de95b61c51c8e30b98d2247716cb5acfec979030422ce9165809c981087f08e",
    "gemm-n32-k8-m16-p24-strict":
        "ea1817490ab3a641947dec0685dd0c3c6237b4e13e23ca32ed3ace6e3033af04",
    "gemm-n36-k3-m12-p36":
        "a9fbd9287666502a6113166d261fe20035ab4febbfbb98263e4044eebe989c60",
    "gemm-n48-k8-m16-p40":
        "cff59e21fec4afc4bba64643c2cf0c901d91bf607b51bde5fdd8b75a2d831f35",
    "gemm-n96-k8-m32-p96":
        "135eb92b57ce45f26abdccc0c23a56d525aa15bfcf229d668b0a427edfe07fc0",
    "gemm-p11-q6-r13-k4-m8-strict":
        "88b98d2ea588a2c13b847e6aeafbb2bbc1a4a670974697379ecb373f945eb10b",
    "gemm-p13-q20-r7-k4-m8":
        "b4a792bb810359c584b51532ffcf8b944b92c1edb00bca3c1041cff5c7d8d608",
    "gemm-p20-q9-r30-k4-m16-strict":
        "22abd1efa38067b361b2de3adc571342d4c5b59ab7c10c63b67a918906ed1796",
    "gemm-p24-q24-r24-k4-m16":
        "527981eaf5cb5d4ffeb4b42156e311ae36e0663f93d511337d79e9fd3eda8f6a",
    "gemm-p370-q50-r381-k8-m32":
        "b13a717b6732a390a31a9aab79ab0e7d1d2ddd5d96b88cb5d8aa15272d46aba2",
    "gemm-p40-q24-r17-k8-m16":
        "fe37bcb4a20531b839f128b0744cf813123944c9bf74b76aad8b0a9a6ed6ec3f",
    "gemm-p5-q3-r9-k2-m8":
        "2bcfba8986efbc25dc47ffc8d29b0fa4c3d880b791bba1d2b8db69c1695b92c4",
    "gemm-p97-q70-r100-k8-m32":
        "22348163e735ed8964cd0acb8e4123a1d66a0af3cf5d34d39b0a5591bc144493",
    "gemv-column-k1-r14":
        "2ef370f1687ddec076fefd213ba09106f7c09827387ecacd150595f1533824f0",
    "gemv-column-k1-r23":
        "cf704a37f6750dec162b1d84a58b84722786ef00f94e90a9be53a1fdef70b629",
    "gemv-column-k1-r256":
        "ef82a333c61d9f0db498afc661d49f85fbdeab7a4bc7b084ec8a624427e887e7",
    "gemv-column-k1-r256-b16":
        "6d7bbe00635ac4630edce5f8a1e4ed9063996d9af967b9e734863fd525223ece",
    "gemv-column-k2-r256":
        "ede0d84c9fdaebde2fb4b1adeb458aed55f31b120a101dc7c7175ce2b528a3d0",
    "gemv-column-k2-r256-b32":
        "4d57c5dcaa7d7afb9158ed1c4dd3ccb47a4fdc76b55f6b90e63a57ca9f4a54aa",
    "gemv-column-k2-r28":
        "6a741d7342d8f8734d7d53c867c222d5c5fbdc505ede6289112c44426236cccf",
    "gemv-column-k2-r43":
        "29fb4768f16ab4e8386fe17e71ea4841f550ba3166e83ddfd87f9293b3100b65",
    "gemv-column-k4-r256":
        "33ad0fbe07362271e35bcfab537505463b640c0d21a749204ac471ab6ddf2ec8",
    "gemv-column-k4-r256-b64":
        "d1c712fad7c55afc2bb62d4538f60a6b2c0288d589646e1c91b1ebb2ae81f486",
    "gemv-column-k4-r56":
        "f0a08dd43b6f6622876577b9f86d7271c9d16632274c35806aa983689e59fd44",
    "gemv-column-k4-r83":
        "3ed47817c07bfdaa991dcce88c2205ee5a6ef6ebf4205967b7df4471581d7f75",
    "gemv-column-k8-r112":
        "a32758dfb6f9405ba6c80dec5caed348ed650942ab343eb08319bc027db66d31",
    "gemv-column-k8-r163":
        "14566c15984c9dc6209d27420b3ceeb98065dff494d5d0770857ac743f3c857e",
    "gemv-column-k8-r256":
        "ed2ede51d515d8df13290f03917476fdf38f3bc119e9b4c5a753abb07dba86f1",
    "gemv-column-k8-r256-b128":
        "0e167312bc3e5b451e3dcce1e1003475ed7ec1a230d886a06267859bce34fb10",
    "gemv-k1-n250":
        "152c68610e428b86f0e29191bd4ca2a901326566da28cbee6483479224da0921",
    "gemv-k1-n250-b64":
        "514d7a57b24b276be658baec37466065043583be05fb3e9c66901fe28fc731cf",
    "gemv-k1-n5":
        "531139ea31adf15c89f3de5148ccfddab4f16575c0999a7515a2ef0afd4d3358",
    "gemv-k1-n5-b64":
        "9a4694b475a2b0e78b161acb9432721b7ad144e0b3b336daa43bca19cf3515b9",
    "gemv-k1-n64":
        "e02dbed7fc16509c2a2b0595f194a98e44d2418d8589670156a3ade5ab595141",
    "gemv-k1-n64-b64":
        "c394e974a778f1aed24ed25834938a67d0852cecdf225fdb4f28725c19800e2d",
    "gemv-k3-n250":
        "fd46e9143a699e9f62cc8ef762a7fc5fc4a23b2950f9989c7d7220f935ce44f7",
    "gemv-k3-n250-b64":
        "6312113847253cef88f59703c50300359ba4dd74551a8f42048e72bb9049107b",
    "gemv-k3-n5":
        "25da5d8d9f4c9e088fa7d5bc8b7b689af27996ceee847745b6f5fdd82220cde9",
    "gemv-k3-n5-b64":
        "e6ec8031c80ddc074c6499681231044eaca4380eb5284f473870c19f2bdef278",
    "gemv-k3-n64":
        "bab561938aed26190dccb870afad3036e9ae581cf8f098f006b2c3204fbe5369",
    "gemv-k3-n64-b64":
        "1eefc31c8b99bf9fbd6adff3f137cb95a323dc3ea278f6c948adb4b074fbeac3",
    "gemv-k4-n250":
        "4023b03be51683d9721590ea5cc3196aed318b3af90bc53ea64f80e21f7b1d6e",
    "gemv-k4-n250-b64":
        "6ac489c66c7d3e3987afb2e024faf506e355cf306eda977b9fecd55eb2757c31",
    "gemv-k4-n5":
        "cdc009264387411a9f8550f502f9b9cd248eb97128e2f29d1ed92e6ba1d28fa2",
    "gemv-k4-n5-b64":
        "bc988fd37adf8e713a5c8983e57b7bdd795e314180b84a73286af5a79ea508d3",
    "gemv-k4-n64":
        "381b4033e2f07f1a154276ade3785b4e08f6aff4007609b1ca3457ef086d3711",
    "gemv-k4-n64-b64":
        "077940e851a1ae8b6a7e81137f00983cbced7ce8914bf911d294f71ce0e61454",
    "gemv-k8-n250":
        "98d1e665b270ca10ccebec489d590dbef643b7c5f5a6914850e96c7b1de77c9a",
    "gemv-k8-n250-b64":
        "731f3d2e4383bc992f3452ac60a41b7d91508ce654e7cdbfd436e2133d6c6de7",
    "gemv-k8-n5":
        "5b5121016139f3cb55db2be25a9c3537d0cacfe0414575b29a0886ac1f7a8ec9",
    "gemv-k8-n5-b64":
        "3c0eb95161a049ebc330cd40785701cea031c72f44753375ac88dfcdbca8edd1",
    "gemv-k8-n64":
        "828021fe6181db3e1570208fa2a077dc0064020026befdfbc816a75ad1343e90",
    "gemv-k8-n64-b64":
        "4556efe3882cc5c219febff66b7a3d03bd6929750233392dc9faeb666c6d82e5",
    "spmxv-k1-empty_rows":
        "fe81db82bfc0c7c810ed8ff42f1b696d9cacde06bbf48886ead443d4e9d40822",
    "spmxv-k1-poisson12":
        "5e95477caf6b183a604289cf2821a033255984d698879be66c78fe97f0a8691d",
    "spmxv-k3-empty_rows":
        "18864b274ad63c5dac7ac59226b0440395a1352947d463a5d22f99e686199042",
    "spmxv-k3-poisson12":
        "2c49606f000a40d84388541cfb38b2356b0e794b8215bb022fb02e354c44d735",
    "spmxv-k4-empty_rows":
        "9c5604eba6a1a3b648ab763f91bdf73ab0f5c46d809675247716208e143ba0c2",
    "spmxv-k4-poisson12":
        "9f36365fc79a5eb4a4976d9e130bbfcf70f4669fdaea9fb42c5ebb9a732b38f5",
    "spmxv-k8-empty_rows":
        "f2268ced449ae2650bf30a4a825af0dd95313ab18850eb90924834a34686fc57",
    "spmxv-k8-poisson12":
        "57d76a2fd647d5b066f4667954a6518fb3421ad0c2e821ce39483d37ca5e3233",
}


def test_grid_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


def test_empty_rows_fixture_has_leading_and_trailing_empties():
    row_nnz = np.diff(_sparse_with_empty_rows().row_ptr)
    assert row_nnz[0] == 0 and row_nnz[-1] == 0
    assert row_nnz[1:-1].max() > max(SPMXV_KS)


def _modes(case):
    """The sim modes a case runs in: asum steps only, and a gemm case
    names its one mode by its ``strict`` flag (last in its extras)."""
    op, _, _, extra = CASES[case]
    if op == "asum":
        return ("cycle",)
    if op in ("gemm", "gemm-short"):
        return ("cycle",) if extra[-1] else ("fast",)
    return ("cycle", "fast")


@pytest.mark.parametrize("case, mode", [
    (case, mode) for case in sorted(CASES) for mode in _modes(case)])
def test_run_matches_golden_digest(case, mode):
    assert _digest(_run(case, mode)) == GOLDEN[case]


def _csr_digest(matrix):
    """sha256 over the shape and each CSR array's dtype, shape and
    bytes."""
    h = hashlib.sha256(repr(matrix.shape).encode())
    for array in (matrix.values, matrix.col_indices, matrix.row_ptr):
        h.update(array.dtype.str.encode())
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


#: sha256 of ``poisson_2d(grid)``'s arrays, per grid.
GOLDEN_POISSON = {
    1: "fb521d3beca30bbc6f4b9aa0c53ba06ca6f125fdba696c7d49275dab6228fba9",
    2: "871a406e150bc1ac513d413355d619a3dc208756b80448cdae6fd519d9bff7c4",
    3: "b2c3f077b107d95fd7686c0052a7438af4893dd7dd898074a5307251b978d644",
    7: "def8b1a0bc1834cbccccca65102ccf3fab7ef4ed9f92689649330b3df24e85e5",
    16: "e60cc1b68df27472220f0eab43f4c3afba79caffbe9f4944e410356403f3d230",
    20: "6f509f0cc51a8f8d8253a70060bbda59650cc5795b75a30737fe7392a67150aa",
}


@pytest.mark.parametrize("grid", POISSON_GRIDS)
def test_poisson_2d_matches_golden_digest(grid):
    assert _csr_digest(poisson_2d(grid)) == GOLDEN_POISSON[grid]
