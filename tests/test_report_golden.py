"""Golden digests of every report, plan and run-record rate.

The kernel goldens (``tests/test_kernel_golden.py``) pin each design's
run record field by field; these pin what the BLAS API builds on top
of them.  Per case and sim mode, one sha256 covers:

* every field of the :class:`~repro.blas.api.ExecutionPlan` that
  ``BlasCall.plan`` returns (the area's fields included) and its
  design key;
* every field of the :class:`~repro.blas.api.PerfReport` that
  ``BlasCall.execute`` returns, and the result's bytes;
* or the type and message of the error either one raises.

The grid is dot over n ∈ {1, 7, 64, 300}; gemv in both storage orders
over 64×64, 100×33 and 40×80, unblocked and in blocks of 16 (the
column design's hazard errors, which fail the plan too, included);
spmxv on the 8×8 and 12×12 Poisson grids; and gemm over five shapes,
square and rectangular, on one to four blades, at k = 8 and k = 6
with the default block and at k = 4, m = 8 (a peak of 2k·l that is
not a power of two rounds the report's efficiency), plus four-blade
gangs split two to a chassis and
a strict single-blade replay.  A second table pins each run record's fields and the rates it
defines at two clocks, on direct design runs that include a gang whose
b-block is the whole problem and one with two b-blocks per side, and a
third the fixed cycles a coalesced gemm pass saves,
:func:`~repro.blas.api.gemm_fixed_overhead_cycles`.  Floats are hashed
by bit pattern.

Operands come from integer arithmetic and one IEEE division each, and
gemm calls no BLAS, so the digests hold on any host.
"""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from repro.blas.api import BlasCall, gemm_fixed_overhead_cycles
from repro.blas.level1 import DotProductDesign
from repro.blas.level1_ext import AsumDesign, AxpyDesign, ScalDesign
from repro.blas.level2 import ColumnMajorMvmDesign, TreeMvmDesign
from repro.blas.level3 import MatrixMultiplyDesign
from repro.blas.multi_fpga import MultiFpgaMatrixMultiply
from repro.sim.engine import SimulationError
from repro.sparse.spmxv import SpmxvDesign
from repro.workloads import poisson_2d


def _matrix(rows, cols, salt):
    """rows×cols fractions in (-0.5, 0.5), whose sums round."""
    i = np.arange(rows * cols, dtype=np.int64)
    return (((i * 7919 + salt) % 1009 - 504) / 1013).reshape(rows, cols)


def _vec(n, salt):
    return _matrix(1, n, salt).ravel()


def _update(h, value):
    """Hash ``value`` into ``h``: floats by bit pattern, arrays by
    shape and bytes, dataclasses field by field."""
    if isinstance(value, np.ndarray):
        h.update(repr(value.shape).encode())
        h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(struct.pack("<d", float(value)))
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            h.update(field.name.encode())
            _update(h, getattr(value, field.name))
    else:
        h.update(repr(value).encode())


def _digest(*items):
    h = hashlib.sha256()
    for item in items:
        _update(h, item)
    return h.hexdigest()


def _outcome(fn):
    """``fn()``, or the type and message of the design error it
    raised."""
    try:
        return fn()
    except (ValueError, SimulationError) as exc:
        return f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# BlasCall plans and reports
# ----------------------------------------------------------------------
GEMM_SHAPES = [(16, 16, 16), (64, 64, 64), (100, 37, 70),
               (128, 128, 128), (5, 200, 9)]

#: case id → BlasCall keyword arguments, operands built by _operands.
CALLS = {}
for _n in (1, 7, 64, 300):
    CALLS[f"dot-n{_n}"] = dict(operation="dot", shape=(_n,))
for _arch in ("tree", "column"):
    for _rows, _cols in ((64, 64), (100, 33), (40, 80)):
        for _block in (None, 16):
            CALLS[f"gemv-{_arch}-{_rows}x{_cols}-b{_block}"] = dict(
                operation="gemv", shape=(_rows, _cols),
                architecture=_arch, block=_block)
for _grid in (8, 12):
    CALLS[f"spmxv-poisson{_grid}"] = dict(operation="spmxv",
                                          shape=(_grid,))
for _p, _q, _r in GEMM_SHAPES:
    for _k, _m in ((8, None), (4, 8), (6, None)):
        for _l in (1, 2, 3, 4):
            CALLS[f"gemm-{_p}x{_q}x{_r}-k{_k}-m{_m}-l{_l}"] = dict(
                operation="gemm", shape=(_p, _q, _r), k=_k, m=_m,
                blades=_l)
        CALLS[f"gemm-{_p}x{_q}x{_r}-k{_k}-m{_m}-l4-chassis2"] = dict(
            operation="gemm", shape=(_p, _q, _r), k=_k, m=_m, blades=4,
            fpgas_per_chassis=2)
CALLS["gemm-16x16x16-k4-m8-l1-strict"] = dict(
    operation="gemm", shape=(16, 16, 16), k=4, m=8, strict=True)


def _operands(operation, shape):
    if operation == "dot":
        return _vec(shape[0], 3), _vec(shape[0], 11)
    if operation == "gemv":
        return _matrix(*shape, 5), _vec(shape[1], 17)
    if operation == "spmxv":
        matrix = poisson_2d(shape[0])
        return matrix, _vec(matrix.ncols, 907)
    p, q, r = shape
    return _matrix(p, q, 5), _matrix(q, r, 13)


def _call(case, mode):
    spec = dict(CALLS[case])
    operands = _operands(spec["operation"], spec.pop("shape"))
    return BlasCall(operands=operands, sim_mode=mode, **spec)


def _call_digest(case, mode):
    call = _call(case, mode)

    def plan():
        plan = call.plan()
        return plan, plan.design_key

    def execute():
        result = call.execute()
        return result.report, result.value

    return _digest(_outcome(plan), _outcome(execute))


#: sha256 of each call's plan, report and value, per case and mode.
GOLDEN_CALLS = {
    "dot-n1/cycle":
        "6c7c7ae16d70812155a459e4dc5939a1c4598150a13cd9904070507ea733f83d",
    "dot-n1/fast":
        "6c7c7ae16d70812155a459e4dc5939a1c4598150a13cd9904070507ea733f83d",
    "dot-n300/cycle":
        "b3ecd59f9c3005cdcc93eec0846af57dfacf183ab2164e77563b3c81f0a19137",
    "dot-n300/fast":
        "b3ecd59f9c3005cdcc93eec0846af57dfacf183ab2164e77563b3c81f0a19137",
    "dot-n64/cycle":
        "473787b95aedc09bf1e20d8455ab6abd85edacd1ef2eb5c35d21476a531f31ae",
    "dot-n64/fast":
        "473787b95aedc09bf1e20d8455ab6abd85edacd1ef2eb5c35d21476a531f31ae",
    "dot-n7/cycle":
        "0553c7df0fe29bac851a35cb50011d6d8a9e564b80a79749532b616e56f6de29",
    "dot-n7/fast":
        "0553c7df0fe29bac851a35cb50011d6d8a9e564b80a79749532b616e56f6de29",
    "gemm-100x37x70-k4-m8-l1/cycle":
        "01e7138f311f68deb3fdfe6784f827663bca5ad68b826f12249edf05bdf8510d",
    "gemm-100x37x70-k4-m8-l1/fast":
        "01e7138f311f68deb3fdfe6784f827663bca5ad68b826f12249edf05bdf8510d",
    "gemm-100x37x70-k4-m8-l2/cycle":
        "d3d58e3de469799bfaaae68e90bef2e72e5ecd4a66c8de26892f4b79fcd50137",
    "gemm-100x37x70-k4-m8-l2/fast":
        "d3d58e3de469799bfaaae68e90bef2e72e5ecd4a66c8de26892f4b79fcd50137",
    "gemm-100x37x70-k4-m8-l3/cycle":
        "78046ff7e7027d4f5ec5923b884e9545e1369d6834e3265b49dea3cda3cdae1d",
    "gemm-100x37x70-k4-m8-l3/fast":
        "78046ff7e7027d4f5ec5923b884e9545e1369d6834e3265b49dea3cda3cdae1d",
    "gemm-100x37x70-k4-m8-l4-chassis2/cycle":
        "1dde3a5f1755e6d9e9374c583fd32d19cffb939918ae518a8c97abbd6e6b45e5",
    "gemm-100x37x70-k4-m8-l4-chassis2/fast":
        "1dde3a5f1755e6d9e9374c583fd32d19cffb939918ae518a8c97abbd6e6b45e5",
    "gemm-100x37x70-k4-m8-l4/cycle":
        "6ec8accd2ca0ac1e72dea12c14d70dc779d454c44664a2a693046063a84e0c9b",
    "gemm-100x37x70-k4-m8-l4/fast":
        "6ec8accd2ca0ac1e72dea12c14d70dc779d454c44664a2a693046063a84e0c9b",
    "gemm-100x37x70-k6-mNone-l1/cycle":
        "f70336756aab7511b115b4940d4a2302fce77bddc83d643e9e14d4fc3c4d3520",
    "gemm-100x37x70-k6-mNone-l1/fast":
        "f70336756aab7511b115b4940d4a2302fce77bddc83d643e9e14d4fc3c4d3520",
    "gemm-100x37x70-k6-mNone-l2/cycle":
        "bd8d0ff2fbf87f5e2b8eb3ca0747d11a548710533bfe10f89f982a24908e51f6",
    "gemm-100x37x70-k6-mNone-l2/fast":
        "bd8d0ff2fbf87f5e2b8eb3ca0747d11a548710533bfe10f89f982a24908e51f6",
    "gemm-100x37x70-k6-mNone-l3/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-100x37x70-k6-mNone-l3/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-100x37x70-k6-mNone-l4-chassis2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-100x37x70-k6-mNone-l4-chassis2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-100x37x70-k6-mNone-l4/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-100x37x70-k6-mNone-l4/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-100x37x70-k8-mNone-l1/cycle":
        "312810d7e872a967f5b6a7a204ada54ff5224a1fd86ef0313d161ca8b3aac4f3",
    "gemm-100x37x70-k8-mNone-l1/fast":
        "312810d7e872a967f5b6a7a204ada54ff5224a1fd86ef0313d161ca8b3aac4f3",
    "gemm-100x37x70-k8-mNone-l2/cycle":
        "43a5b356ffdb722350ac6672e1e471d0173b4bb11a20e9dbe4bcac11cb926aa3",
    "gemm-100x37x70-k8-mNone-l2/fast":
        "43a5b356ffdb722350ac6672e1e471d0173b4bb11a20e9dbe4bcac11cb926aa3",
    "gemm-100x37x70-k8-mNone-l3/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-100x37x70-k8-mNone-l3/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-100x37x70-k8-mNone-l4-chassis2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-100x37x70-k8-mNone-l4-chassis2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-100x37x70-k8-mNone-l4/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-100x37x70-k8-mNone-l4/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k4-m8-l1/cycle":
        "3a5d6beb8ddc67634fe606036c864cac16e3b31c50e32f499e3fbe8485800c84",
    "gemm-128x128x128-k4-m8-l1/fast":
        "3a5d6beb8ddc67634fe606036c864cac16e3b31c50e32f499e3fbe8485800c84",
    "gemm-128x128x128-k4-m8-l2/cycle":
        "215c9f8528e867817c9b53eed9e00953c1ef03980e1aabf4651889f01e7eb7b7",
    "gemm-128x128x128-k4-m8-l2/fast":
        "215c9f8528e867817c9b53eed9e00953c1ef03980e1aabf4651889f01e7eb7b7",
    "gemm-128x128x128-k4-m8-l3/cycle":
        "6adde9c862fc0c9ddc9cdf0944181fd80cde8428fff955fcb117584305762341",
    "gemm-128x128x128-k4-m8-l3/fast":
        "6adde9c862fc0c9ddc9cdf0944181fd80cde8428fff955fcb117584305762341",
    "gemm-128x128x128-k4-m8-l4-chassis2/cycle":
        "c9a624e9de2d3ff106773554e36d9cebaeaa20ea61ee237c86ee572cc988cdb1",
    "gemm-128x128x128-k4-m8-l4-chassis2/fast":
        "c9a624e9de2d3ff106773554e36d9cebaeaa20ea61ee237c86ee572cc988cdb1",
    "gemm-128x128x128-k4-m8-l4/cycle":
        "ee76abb4e416cb93a7db8e131dc198468da2874665d55d60659b64cabef647df",
    "gemm-128x128x128-k4-m8-l4/fast":
        "ee76abb4e416cb93a7db8e131dc198468da2874665d55d60659b64cabef647df",
    "gemm-128x128x128-k6-mNone-l1/cycle":
        "2d071e299ed685caafe6669e4d236749fa57dc3bb911dbb339d69bc214c5c462",
    "gemm-128x128x128-k6-mNone-l1/fast":
        "2d071e299ed685caafe6669e4d236749fa57dc3bb911dbb339d69bc214c5c462",
    "gemm-128x128x128-k6-mNone-l2/cycle":
        "4bc622af9b695a65736b411583f7bd783e27aebfcc5f91072d452e429e24cbd3",
    "gemm-128x128x128-k6-mNone-l2/fast":
        "4bc622af9b695a65736b411583f7bd783e27aebfcc5f91072d452e429e24cbd3",
    "gemm-128x128x128-k6-mNone-l3/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k6-mNone-l3/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k6-mNone-l4-chassis2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k6-mNone-l4-chassis2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k6-mNone-l4/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k6-mNone-l4/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k8-mNone-l1/cycle":
        "7074897b61bb4b36812b07470d1c3824d88c7b0fbadfcac407deef06d8322dc2",
    "gemm-128x128x128-k8-mNone-l1/fast":
        "7074897b61bb4b36812b07470d1c3824d88c7b0fbadfcac407deef06d8322dc2",
    "gemm-128x128x128-k8-mNone-l2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k8-mNone-l2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k8-mNone-l3/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k8-mNone-l3/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k8-mNone-l4-chassis2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k8-mNone-l4-chassis2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k8-mNone-l4/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-128x128x128-k8-mNone-l4/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k4-m8-l1-strict/cycle":
        "f62010be6f227ec1cabb8f13b7e1bcdfc99714c0c03494a93245b9ea64f5cf60",
    "gemm-16x16x16-k4-m8-l1-strict/fast":
        "f62010be6f227ec1cabb8f13b7e1bcdfc99714c0c03494a93245b9ea64f5cf60",
    "gemm-16x16x16-k4-m8-l1/cycle":
        "51223894337adcc7db058e1407b176b97838e66ef7cda672d3939a4e7fcb1491",
    "gemm-16x16x16-k4-m8-l1/fast":
        "51223894337adcc7db058e1407b176b97838e66ef7cda672d3939a4e7fcb1491",
    "gemm-16x16x16-k4-m8-l2/cycle":
        "11b42abb5771599e84e3fb217c986aeb17fc4004a382bb1f3413cefebf6b482d",
    "gemm-16x16x16-k4-m8-l2/fast":
        "11b42abb5771599e84e3fb217c986aeb17fc4004a382bb1f3413cefebf6b482d",
    "gemm-16x16x16-k4-m8-l3/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k4-m8-l3/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k4-m8-l4-chassis2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k4-m8-l4-chassis2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k4-m8-l4/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k4-m8-l4/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k6-mNone-l1/cycle":
        "2c08ba0946ed7330813c61b889bcd3557a1f20a3f863e34ef67972e0884375df",
    "gemm-16x16x16-k6-mNone-l1/fast":
        "2c08ba0946ed7330813c61b889bcd3557a1f20a3f863e34ef67972e0884375df",
    "gemm-16x16x16-k6-mNone-l2/cycle":
        "240c7e3587bf1fb1ae1bacc30b63e3856f175bce7812e8deb6a70236997716fd",
    "gemm-16x16x16-k6-mNone-l2/fast":
        "240c7e3587bf1fb1ae1bacc30b63e3856f175bce7812e8deb6a70236997716fd",
    "gemm-16x16x16-k6-mNone-l3/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k6-mNone-l3/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k6-mNone-l4-chassis2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k6-mNone-l4-chassis2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k6-mNone-l4/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k6-mNone-l4/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k8-mNone-l1/cycle":
        "0002bb7a26b53cc49184c27e2048923a871d4f241c77686d55a41eed32160ba8",
    "gemm-16x16x16-k8-mNone-l1/fast":
        "0002bb7a26b53cc49184c27e2048923a871d4f241c77686d55a41eed32160ba8",
    "gemm-16x16x16-k8-mNone-l2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k8-mNone-l2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k8-mNone-l3/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k8-mNone-l3/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k8-mNone-l4-chassis2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k8-mNone-l4-chassis2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k8-mNone-l4/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-16x16x16-k8-mNone-l4/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-5x200x9-k4-m8-l1/cycle":
        "0bcad43228831fe5810d77e29a0f38946347ab0d9403eb9ab568efa1f16ae9a5",
    "gemm-5x200x9-k4-m8-l1/fast":
        "0bcad43228831fe5810d77e29a0f38946347ab0d9403eb9ab568efa1f16ae9a5",
    "gemm-5x200x9-k4-m8-l2/cycle":
        "4a887da27ebda60f561dbc6962fcccbf0c9c7fffbc658e525099cc865733777c",
    "gemm-5x200x9-k4-m8-l2/fast":
        "4a887da27ebda60f561dbc6962fcccbf0c9c7fffbc658e525099cc865733777c",
    "gemm-5x200x9-k4-m8-l3/cycle":
        "d68d1fcd37fea617df688bf7b2fcd0384d0c15044261f2ce3428243c6ea153c5",
    "gemm-5x200x9-k4-m8-l3/fast":
        "d68d1fcd37fea617df688bf7b2fcd0384d0c15044261f2ce3428243c6ea153c5",
    "gemm-5x200x9-k4-m8-l4-chassis2/cycle":
        "2af2abbefb4f3f4ace60e97d5dfbb8739b95f80e62e1e0129a0acbece826eab1",
    "gemm-5x200x9-k4-m8-l4-chassis2/fast":
        "2af2abbefb4f3f4ace60e97d5dfbb8739b95f80e62e1e0129a0acbece826eab1",
    "gemm-5x200x9-k4-m8-l4/cycle":
        "a2e8f4a5ab2c6236668d5209ffe65dc351faa2e4c9a855120f5f7b665576c718",
    "gemm-5x200x9-k4-m8-l4/fast":
        "a2e8f4a5ab2c6236668d5209ffe65dc351faa2e4c9a855120f5f7b665576c718",
    "gemm-5x200x9-k6-mNone-l1/cycle":
        "5b1ef59cdfb6b6b579ae31c2e65078304cce31f48905c1f1a11d70375a0a0af8",
    "gemm-5x200x9-k6-mNone-l1/fast":
        "5b1ef59cdfb6b6b579ae31c2e65078304cce31f48905c1f1a11d70375a0a0af8",
    "gemm-5x200x9-k6-mNone-l2/cycle":
        "720080b7ceca3cc635b7f57be33e644a8fb3cd87d4272c2f00da1cc242a5aacb",
    "gemm-5x200x9-k6-mNone-l2/fast":
        "720080b7ceca3cc635b7f57be33e644a8fb3cd87d4272c2f00da1cc242a5aacb",
    "gemm-5x200x9-k6-mNone-l3/cycle":
        "ea7020cbdf73e539f2bb1a78692ea0f70d4847961e756cdae4e5f2fcc8775a2d",
    "gemm-5x200x9-k6-mNone-l3/fast":
        "ea7020cbdf73e539f2bb1a78692ea0f70d4847961e756cdae4e5f2fcc8775a2d",
    "gemm-5x200x9-k6-mNone-l4-chassis2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-5x200x9-k6-mNone-l4-chassis2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-5x200x9-k6-mNone-l4/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-5x200x9-k6-mNone-l4/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-5x200x9-k8-mNone-l1/cycle":
        "35bd10fd9efd0ec9637eac359229a0be077518345f0f23aab28ef2d9e102ba3b",
    "gemm-5x200x9-k8-mNone-l1/fast":
        "35bd10fd9efd0ec9637eac359229a0be077518345f0f23aab28ef2d9e102ba3b",
    "gemm-5x200x9-k8-mNone-l2/cycle":
        "06f98f276127066da0e37ed1d9359b09e8e435346ecd4cc75d7d4f0c4bc3abb5",
    "gemm-5x200x9-k8-mNone-l2/fast":
        "06f98f276127066da0e37ed1d9359b09e8e435346ecd4cc75d7d4f0c4bc3abb5",
    "gemm-5x200x9-k8-mNone-l3/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-5x200x9-k8-mNone-l3/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-5x200x9-k8-mNone-l4-chassis2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-5x200x9-k8-mNone-l4-chassis2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-5x200x9-k8-mNone-l4/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-5x200x9-k8-mNone-l4/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k4-m8-l1/cycle":
        "4b8eb04a4cfe1e3ee800859b4d2968291565a1d742e54916ce1bf3420ff672a4",
    "gemm-64x64x64-k4-m8-l1/fast":
        "4b8eb04a4cfe1e3ee800859b4d2968291565a1d742e54916ce1bf3420ff672a4",
    "gemm-64x64x64-k4-m8-l2/cycle":
        "13d7e6eb4fbcf4f4f6ea82ea1d128e36be72cec086f5c5e06358374d7d8a5f56",
    "gemm-64x64x64-k4-m8-l2/fast":
        "13d7e6eb4fbcf4f4f6ea82ea1d128e36be72cec086f5c5e06358374d7d8a5f56",
    "gemm-64x64x64-k4-m8-l3/cycle":
        "e875769dd69e563d40cc338fc15673fa101ca0832af8603e7df7207fdd443f0e",
    "gemm-64x64x64-k4-m8-l3/fast":
        "e875769dd69e563d40cc338fc15673fa101ca0832af8603e7df7207fdd443f0e",
    "gemm-64x64x64-k4-m8-l4-chassis2/cycle":
        "3b8dd6625fc652f71d1283ee6b92e814c6288d65d6fa65c558b0e7eebdb7ca47",
    "gemm-64x64x64-k4-m8-l4-chassis2/fast":
        "3b8dd6625fc652f71d1283ee6b92e814c6288d65d6fa65c558b0e7eebdb7ca47",
    "gemm-64x64x64-k4-m8-l4/cycle":
        "07d1bd9e09ea31a41e92fb5811c9f81b6f85f058e2f01955f9ecc3dba52b54d1",
    "gemm-64x64x64-k4-m8-l4/fast":
        "07d1bd9e09ea31a41e92fb5811c9f81b6f85f058e2f01955f9ecc3dba52b54d1",
    "gemm-64x64x64-k6-mNone-l1/cycle":
        "367d16be78636cc1f4fa00da606461c167bb9b10ea240a31f09a280282d8f42e",
    "gemm-64x64x64-k6-mNone-l1/fast":
        "367d16be78636cc1f4fa00da606461c167bb9b10ea240a31f09a280282d8f42e",
    "gemm-64x64x64-k6-mNone-l2/cycle":
        "283f175e3b1c5881396bdcfa079bb0018b12471e8398c9b041aa65bf40b9ea2e",
    "gemm-64x64x64-k6-mNone-l2/fast":
        "283f175e3b1c5881396bdcfa079bb0018b12471e8398c9b041aa65bf40b9ea2e",
    "gemm-64x64x64-k6-mNone-l3/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k6-mNone-l3/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k6-mNone-l4-chassis2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k6-mNone-l4-chassis2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k6-mNone-l4/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k6-mNone-l4/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k8-mNone-l1/cycle":
        "330c5e49072998264da71ba54547f6ed7b77a0b7c1c49b1e5c01872d379db654",
    "gemm-64x64x64-k8-mNone-l1/fast":
        "330c5e49072998264da71ba54547f6ed7b77a0b7c1c49b1e5c01872d379db654",
    "gemm-64x64x64-k8-mNone-l2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k8-mNone-l2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k8-mNone-l3/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k8-mNone-l3/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k8-mNone-l4-chassis2/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k8-mNone-l4-chassis2/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k8-mNone-l4/cycle":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemm-64x64x64-k8-mNone-l4/fast":
        "0d46ccb0ff9adc9e516440500635a9974f6cd47af30513a9199db208755cf042",
    "gemv-column-100x33-b16/cycle":
        "1b2ba6db5125f9266c900d44b25a2c3806a468fb0f3ecc84ae30d116b3230682",
    "gemv-column-100x33-b16/fast":
        "1b2ba6db5125f9266c900d44b25a2c3806a468fb0f3ecc84ae30d116b3230682",
    "gemv-column-100x33-bNone/cycle":
        "0a06dbe200ef206626590d2f827f6a725758d9296809e2ecd0a868a9f55cf1c3",
    "gemv-column-100x33-bNone/fast":
        "0a06dbe200ef206626590d2f827f6a725758d9296809e2ecd0a868a9f55cf1c3",
    "gemv-column-40x80-b16/cycle":
        "1b2ba6db5125f9266c900d44b25a2c3806a468fb0f3ecc84ae30d116b3230682",
    "gemv-column-40x80-b16/fast":
        "1b2ba6db5125f9266c900d44b25a2c3806a468fb0f3ecc84ae30d116b3230682",
    "gemv-column-40x80-bNone/cycle":
        "ee602004f10e93d698554c0277babb09e7e80085ad51c46b203e2b3dd9ab1d08",
    "gemv-column-40x80-bNone/fast":
        "ee602004f10e93d698554c0277babb09e7e80085ad51c46b203e2b3dd9ab1d08",
    "gemv-column-64x64-b16/cycle":
        "1b2ba6db5125f9266c900d44b25a2c3806a468fb0f3ecc84ae30d116b3230682",
    "gemv-column-64x64-b16/fast":
        "1b2ba6db5125f9266c900d44b25a2c3806a468fb0f3ecc84ae30d116b3230682",
    "gemv-column-64x64-bNone/cycle":
        "afb83fa131ad878ce9f4a9f9d9ee2134a145c36e6406da3f7ddd4d4caa225929",
    "gemv-column-64x64-bNone/fast":
        "afb83fa131ad878ce9f4a9f9d9ee2134a145c36e6406da3f7ddd4d4caa225929",
    "gemv-tree-100x33-b16/cycle":
        "f4cd11cd5e2ddb449e19caab2da75b54fa0f77f78accd13939186dc33766da8d",
    "gemv-tree-100x33-b16/fast":
        "f4cd11cd5e2ddb449e19caab2da75b54fa0f77f78accd13939186dc33766da8d",
    "gemv-tree-100x33-bNone/cycle":
        "a42188d5976f995588d2bc1dfad33c34bab2bbc01607a4b88a8dbb9102deac99",
    "gemv-tree-100x33-bNone/fast":
        "a42188d5976f995588d2bc1dfad33c34bab2bbc01607a4b88a8dbb9102deac99",
    "gemv-tree-40x80-b16/cycle":
        "83ec1ec1c3bdf3bfe09f05a845a682eacabaa0dabaa2c66466108f563962eb27",
    "gemv-tree-40x80-b16/fast":
        "83ec1ec1c3bdf3bfe09f05a845a682eacabaa0dabaa2c66466108f563962eb27",
    "gemv-tree-40x80-bNone/cycle":
        "549b5f5867b4012d6d5176356e86177bf06d978d3fd9fdbc1df73e065368f648",
    "gemv-tree-40x80-bNone/fast":
        "549b5f5867b4012d6d5176356e86177bf06d978d3fd9fdbc1df73e065368f648",
    "gemv-tree-64x64-b16/cycle":
        "d4ca4aa17d1a600518588cd057db417a7f626d0c8f560105c61f7eea8dce5004",
    "gemv-tree-64x64-b16/fast":
        "d4ca4aa17d1a600518588cd057db417a7f626d0c8f560105c61f7eea8dce5004",
    "gemv-tree-64x64-bNone/cycle":
        "0e0401c82078483f5dddc5585ce2fa13cdb3e913b3b73291d40438e5ba8b16ed",
    "gemv-tree-64x64-bNone/fast":
        "0e0401c82078483f5dddc5585ce2fa13cdb3e913b3b73291d40438e5ba8b16ed",
    "spmxv-poisson12/cycle":
        "3571eda5a2fec193df6b2fb1521d562284c14684d21dbd6c3f855e26119b0df4",
    "spmxv-poisson12/fast":
        "3571eda5a2fec193df6b2fb1521d562284c14684d21dbd6c3f855e26119b0df4",
    "spmxv-poisson8/cycle":
        "a6aaa29f1d6e9aaea556b2b156471672358d0032a08b2d20cfc7530b92b6c088",
    "spmxv-poisson8/fast":
        "a6aaa29f1d6e9aaea556b2b156471672358d0032a08b2d20cfc7530b92b6c088",
}


@pytest.mark.parametrize("mode", ["cycle", "fast"])
@pytest.mark.parametrize("case", sorted(CALLS))
def test_call_matches_golden_digest(case, mode):
    assert _call_digest(case, mode) == GOLDEN_CALLS[f"{case}/{mode}"]


# ----------------------------------------------------------------------
# run records and their rates
# ----------------------------------------------------------------------
#: The rates each run record defines; methods are called with the
#: clock, except ``words_per_cycle``.
RATES = {
    "DotProductRun": ("flops_per_cycle", "peak_flops_per_cycle",
                      "efficiency", "sustained_mflops",
                      "memory_bandwidth_gbytes"),
    "MvmRun": ("flops_per_cycle", "peak_flops_per_cycle", "efficiency",
               "sustained_mflops", "memory_bandwidth_gbytes"),
    "SpmxvRun": ("flops", "flops_per_cycle", "peak_flops_per_cycle",
                 "efficiency", "sustained_mflops",
                 "memory_bandwidth_gbytes"),
    "MatrixMultiplyRun": ("flops", "flops_per_cycle",
                          "peak_flops_per_cycle", "efficiency",
                          "io_words", "words_per_cycle",
                          "sustained_gflops", "memory_bandwidth_gbytes"),
    "MultiFpgaRun": ("flops", "flops_per_cycle", "peak_flops_per_cycle",
                     "efficiency", "sustained_gflops",
                     "dram_bandwidth_mbytes"),
    "VectorRun": ("flops_per_cycle", "sustained_mflops",
                  "words_per_cycle"),
}

CLOCKS = (170.0, 133.3)


def _gang(n, b):
    design = MultiFpgaMatrixMultiply(l=2, k=4, m=8, b=b)
    return design.run(_matrix(n, n, 5), _matrix(n, n, 13))


#: case id → a function of the sim mode returning a run record.
RUNS = {
    "gang-n64-b64": lambda mode: _gang(64, 64),
    "gang-n64-b32": lambda mode: _gang(64, 32),
    "gemm-100x37x70-k8-m64": lambda mode: MatrixMultiplyDesign(
        k=8, m=64).run(_matrix(100, 37, 5), _matrix(37, 70, 13)),
    "gemm-16-k4-m8-strict": lambda mode: MatrixMultiplyDesign(
        k=4, m=8).run(_matrix(16, 16, 5), _matrix(16, 16, 13),
                      strict=True),
    "dot-throttled-n300": lambda mode: DotProductDesign(
        k=2, words_per_cycle=1.5).run(_vec(300, 3), _vec(300, 11),
                                      sim_mode=mode),
    "asum-n37": lambda mode: AsumDesign(k=2).run(_vec(37, 29)),
    "axpy-n37": lambda mode: AxpyDesign(k=2).run(
        0.75, _vec(37, 3), _vec(37, 11)),
    "scal-n37": lambda mode: ScalDesign(k=3).run(-1.25, _vec(37, 3)),
    "gemv-tree-100x33": lambda mode: TreeMvmDesign(k=4).run(
        _matrix(100, 33, 5), _vec(33, 17), sim_mode=mode),
    "gemv-tree-100x33-b16": lambda mode: TreeMvmDesign(
        k=4).run_blocked(_matrix(100, 33, 5), _vec(33, 17), 16,
                         sim_mode=mode),
    "gemv-column-100x33": lambda mode: ColumnMajorMvmDesign(k=4).run(
        _matrix(100, 33, 5), _vec(33, 17), sim_mode=mode),
    "gemv-column-120x33-b60": lambda mode: ColumnMajorMvmDesign(
        k=4).run_blocked(_matrix(120, 33, 5), _vec(33, 17), 60,
                         sim_mode=mode),
    "spmxv-poisson8": lambda mode: SpmxvDesign(k=4).run(
        poisson_2d(8), _vec(64, 907), sim_mode=mode),
}
for _n in (1, 7, 64, 300):
    RUNS[f"dot-n{_n}"] = (lambda n: lambda mode: DotProductDesign(
        k=2).run(_vec(n, 3), _vec(n, 11), sim_mode=mode))(_n)


def _rates(run):
    values = []
    for name in RATES[type(run).__name__]:
        value = getattr(run, name)
        if name == "words_per_cycle":
            value = value()
        elif callable(value):
            value = [value(clock) for clock in CLOCKS]
        values.append((name, value))
    return values


#: sha256 of each run record's fields and rates, per case and mode.
GOLDEN_RUNS = {
    "asum-n37/cycle":
        "6eb1e7fd95f5ce000c1528c5186a98ff29ebb1d43361892e14131e59488b5f0e",
    "asum-n37/fast":
        "6eb1e7fd95f5ce000c1528c5186a98ff29ebb1d43361892e14131e59488b5f0e",
    "axpy-n37/cycle":
        "deee0fc2465e6b4b66e18943efa2230140875490cf54998a7a57ebabea6a9c7c",
    "axpy-n37/fast":
        "deee0fc2465e6b4b66e18943efa2230140875490cf54998a7a57ebabea6a9c7c",
    "dot-n1/cycle":
        "f75d777377206fd56d432c015bc34dd469ce53a4332ceb89ef32332b3c1e3f88",
    "dot-n1/fast":
        "f75d777377206fd56d432c015bc34dd469ce53a4332ceb89ef32332b3c1e3f88",
    "dot-n300/cycle":
        "c91032d1800fa96640566b9825dc78e3325afec7b465be5038e7628f953d0734",
    "dot-n300/fast":
        "c91032d1800fa96640566b9825dc78e3325afec7b465be5038e7628f953d0734",
    "dot-n64/cycle":
        "a0e97a1c69c8708a8ae16d4ca5f0bfc5e2bbeae14d0a42d5051b6b5f5be589f8",
    "dot-n64/fast":
        "a0e97a1c69c8708a8ae16d4ca5f0bfc5e2bbeae14d0a42d5051b6b5f5be589f8",
    "dot-n7/cycle":
        "f59bcd042e19038aeda2335d9810b9c208381296b819af42d9c5a19057d45259",
    "dot-n7/fast":
        "f59bcd042e19038aeda2335d9810b9c208381296b819af42d9c5a19057d45259",
    "dot-throttled-n300/cycle":
        "7c7e49f3674833349272a2ad6b07dd15b3156dc080a7e9c02e6c13f6350825d6",
    "dot-throttled-n300/fast":
        "7c7e49f3674833349272a2ad6b07dd15b3156dc080a7e9c02e6c13f6350825d6",
    "gang-n64-b32/cycle":
        "89fcea23743e91d166056e3a3e6f47328fa972885e4076c5cdc613dd97533624",
    "gang-n64-b32/fast":
        "89fcea23743e91d166056e3a3e6f47328fa972885e4076c5cdc613dd97533624",
    "gang-n64-b64/cycle":
        "4cac7970f4f2fcc7a47fb5908d51108fb32d7ad66356e161336c637f1608907c",
    "gang-n64-b64/fast":
        "4cac7970f4f2fcc7a47fb5908d51108fb32d7ad66356e161336c637f1608907c",
    "gemm-100x37x70-k8-m64/cycle":
        "132d924c1f9ba10e054026b18d45f9ec27f6754989811a68261c8c26dda5e34a",
    "gemm-100x37x70-k8-m64/fast":
        "132d924c1f9ba10e054026b18d45f9ec27f6754989811a68261c8c26dda5e34a",
    "gemm-16-k4-m8-strict/cycle":
        "6798a48fcbd77342885a9d8c13ae6700ddf7f0747980978623eb4a710fb2e0f4",
    "gemm-16-k4-m8-strict/fast":
        "6798a48fcbd77342885a9d8c13ae6700ddf7f0747980978623eb4a710fb2e0f4",
    "gemv-column-100x33/cycle":
        "2b5bf2e0c2905c69758bc7eb990e838064f9bf688d665b75a6231eb4a15d9acc",
    "gemv-column-100x33/fast":
        "2b5bf2e0c2905c69758bc7eb990e838064f9bf688d665b75a6231eb4a15d9acc",
    "gemv-column-120x33-b60/cycle":
        "3555bfe66ac51b2cb798e18a131b36968211b64698348811334d6fe75dd1e5d3",
    "gemv-column-120x33-b60/fast":
        "3555bfe66ac51b2cb798e18a131b36968211b64698348811334d6fe75dd1e5d3",
    "gemv-tree-100x33-b16/cycle":
        "44e97e81aac3440064575bb78ffea314557badfb05df5ba35160108a2b8dff60",
    "gemv-tree-100x33-b16/fast":
        "44e97e81aac3440064575bb78ffea314557badfb05df5ba35160108a2b8dff60",
    "gemv-tree-100x33/cycle":
        "40a748a28a9cd8f097c0a63850a768ab22d8563d87bdbac76c89b714bbf6c0df",
    "gemv-tree-100x33/fast":
        "40a748a28a9cd8f097c0a63850a768ab22d8563d87bdbac76c89b714bbf6c0df",
    "scal-n37/cycle":
        "7396fcf9c5550f80076814be2a0695d65974a9956571c2e0cc1a00f2bdc61a0d",
    "scal-n37/fast":
        "7396fcf9c5550f80076814be2a0695d65974a9956571c2e0cc1a00f2bdc61a0d",
    "spmxv-poisson8/cycle":
        "461b05fd813924a8a0120da6d1b5f681129a71faa06deeed10059c25e4f56d2d",
    "spmxv-poisson8/fast":
        "461b05fd813924a8a0120da6d1b5f681129a71faa06deeed10059c25e4f56d2d",
}


@pytest.mark.parametrize("mode", ["cycle", "fast"])
@pytest.mark.parametrize("case", sorted(RUNS))
def test_run_rates_match_golden_digest(case, mode):
    run = RUNS[case](mode)
    assert _digest(run, _rates(run)) == GOLDEN_RUNS[f"{case}/{mode}"]


# ----------------------------------------------------------------------
# the fixed cycles a coalesced gemm pass saves
# ----------------------------------------------------------------------
GOLDEN_FIXED_OVERHEAD = (
    "e12b953f1ebe3d1dc1c8674b1f92a373124631975f28573321de0fa1966b0fea")


def test_gemm_fixed_overhead_matches_golden_digest():
    cycles = [(k, m, gemm_fixed_overhead_cycles(k, m))
              for k in (1, 2, 4, 8) for m in (8, 16, 32, 64, 128)]
    assert _digest(cycles) == GOLDEN_FIXED_OVERHEAD
