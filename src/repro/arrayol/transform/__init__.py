"""Gaspard2-style transformation chain."""

from repro.arrayol.transform.chain import GaspardContext, ModelPass, TransformationChain
from repro.arrayol.transform.passes import (
    chain_pass_names,
    chain_stages,
    opencl_chain_passes,
    standard_chain,
)

__all__ = ["GaspardContext", "ModelPass", "TransformationChain",
           "standard_chain", "opencl_chain_passes", "chain_pass_names", "chain_stages"]
