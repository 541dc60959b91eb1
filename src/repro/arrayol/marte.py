"""MARTE-style allocation modelling (paper Section V).

The UML profile for MARTE separates hardware from software: Gaspard2 uses
the Detailed Resource Modelling stereotypes (``HwResource`` /
``SwResource``) plus an allocation mapping software components onto
hardware.  We model the parts the code generator consumes: a platform of
named resources of two kinds, and an allocation of task instances to
resources — which decides what becomes an OpenCL kernel (compute-device
resources) and what stays host code (CPU resources, e.g. the OpenCV IPs).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ModelValidationError
from repro.arrayol.model import CompoundTask

__all__ = ["HwResource", "Platform", "Allocation", "GPU_CPU_PLATFORM"]


@dataclass(frozen=True)
class HwResource:
    """A hardware resource (MARTE ``HwResource`` stereotype)."""

    name: str
    kind: str  # "cpu" | "compute_device"

    def __post_init__(self) -> None:
        if self.kind not in ("cpu", "compute_device"):
            raise ModelValidationError(
                f"resource kind must be cpu/compute_device, got {self.kind!r}",
                self.name,
            )


@dataclass(frozen=True)
class Platform:
    """The hardware side of the MARTE model."""

    name: str
    resources: tuple[HwResource, ...]

    def resource(self, name: str) -> HwResource:
        for r in self.resources:
            if r.name == name:
                return r
        raise ModelValidationError(f"no resource {name!r}", self.name)


#: the paper's test system: an i7-930 host driving a GTX480
GPU_CPU_PLATFORM = Platform(
    name="i7_gtx480",
    resources=(
        HwResource("host", "cpu"),
        HwResource("gpu", "compute_device"),
    ),
)


@dataclass(frozen=True)
class Allocation:
    """Maps task instances of a compound onto platform resources."""

    platform: Platform
    mapping: tuple[tuple[str, str], ...]  # (instance, resource)

    def __post_init__(self) -> None:
        for _, res in self.mapping:
            self.platform.resource(res)  # must exist

    @cached_property
    def _index(self) -> dict[str, str]:
        """Instance -> resource name.  Kept in the instance ``__dict__``,
        not a field, so the allocation stays immutable all the way down
        and :func:`~repro.runtime.cache.canonical` memoises its text."""
        return dict(self.mapping)

    def resource_of(self, instance: str) -> HwResource:
        try:
            return self.platform.resource(self._index[instance])
        except KeyError:
            raise ModelValidationError(
                f"instance {instance!r} is not allocated", self.platform.name
            ) from None

    def on_device(self, instance: str) -> bool:
        return self.resource_of(instance).kind == "compute_device"

    def validate_against(self, top: CompoundTask) -> None:
        names = {i.name for i in top.instances}
        for inst, _ in self.mapping:
            if inst not in names:
                raise ModelValidationError(
                    f"allocation references unknown instance {inst!r}", top.name
                )
        for name in names:
            if name not in self._index:
                raise ModelValidationError(
                    f"instance {name!r} has no allocation", top.name
                )
