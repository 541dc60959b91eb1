"""Backend-neutral kernel IR shared by the SaC/CUDA and ArrayOL/OpenCL routes.

The IR has three layers:

* scalar **expressions** and **statements** (:mod:`repro.ir.expr`,
  :mod:`repro.ir.stmt`) executed once per work-item;
* **kernels** over rectangular index spaces (:mod:`repro.ir.kernel`);
* **device programs** — transfer/launch/host-step sequences
  (:mod:`repro.ir.program`).

Evaluation is vectorised (:mod:`repro.ir.evalvec`); emission to CUDA-C and
OpenCL-C goes through :mod:`repro.ir.printer`; the GPU cost model consumes
:mod:`repro.ir.metrics`.
"""

from repro.ir.evalvec import KernelEvaluationError, evaluate_kernel
from repro.ir.expr import (
    BinOp,
    Const,
    Expr,
    LocalRef,
    ParamRef,
    Read,
    Select,
    ThreadIdx,
    UnOp,
    c_div,
    c_int,
    c_mod,
)
from repro.ir.fused import (
    FusedKernel,
    evaluate_fused,
    make_fused_launch,
    validate_fused_kernel,
)
from repro.ir.kernel import ArrayParam, IndexSpace, Kernel, ScalarParam
from repro.ir.metrics import AccessProfile, probe_access_profile, unique_access_bytes
from repro.ir.printer import CSourcePrinter, c_dtype
from repro.ir.program import (
    AllocDevice,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    HostWork,
    LaunchKernel,
    Op,
)
from repro.ir.stmt import Assign, For, Stmt, Store
from repro.ir.validate import validate_kernel, validate_program

__all__ = [
    # expr
    "Expr", "Const", "ThreadIdx", "LocalRef", "ParamRef", "Read", "BinOp",
    "UnOp", "Select", "c_div", "c_int", "c_mod",
    # stmt
    "Stmt", "Assign", "For", "Store",
    # kernel
    "IndexSpace", "ArrayParam", "ScalarParam", "Kernel",
    # fusion
    "FusedKernel", "make_fused_launch", "evaluate_fused", "validate_fused_kernel",
    # program
    "Op", "AllocDevice", "FreeDevice", "HostToDevice", "DeviceToHost",
    "LaunchKernel", "HostWork", "HostCompute", "DeviceProgram",
    # evaluation & analysis
    "evaluate_kernel", "KernelEvaluationError", "AccessProfile",
    "probe_access_profile", "unique_access_bytes",
    # printing & validation
    "CSourcePrinter", "c_dtype", "validate_kernel", "validate_program",
]
