"""Pins of the device programs the SaC route emits, modulo fresh names.

``canonical(program)`` embeds the names the optimiser invents
(``_tmp0_38``, ``_wlf_input_12``), and their numbers follow the
optimiser's name counter, not the program's structure.  Each fresh name
is renumbered in order of first appearance before hashing, so a pin
moves when the emitted program changes (an extra load, a different
launch, a merged read) and not when the optimiser merely draws fewer
names on the way there.
"""

import hashlib
import re

import pytest

from repro.apps.convolution import convolution_program_source, gaussian3, gaussian5
from repro.apps.downscaler.config import CIF, HD
from repro.apps.downscaler.sac_sources import GENERIC, NONGENERIC
from repro.apps.downscaler.serving import downscaler_job
from repro.opt import OptOptions
from repro.runtime.cache import CompileCache, canonical
from repro.sac.backend import CompileOptions

#: a name ``FreshNames`` draws: ``_<base>_<n>``, the base itself possibly
#: holding underscores
FRESH = re.compile(
    r"(?<![A-Za-z0-9_])_[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)*?_\d+(?![A-Za-z0-9_])"
)

#: the first 16 hex digits of each program's renumbered-canonical digest
PINS = {
    "convolution-gaussian3-96x128-default": "f6bd9277d4681c89",
    "convolution-gaussian3-96x128-opt": "4e863440ebaab6bd",
    "convolution-gaussian3-cif-default": "1313487f40cee24e",
    "convolution-gaussian3-cif-opt": "b3d179bdda706572",
    "convolution-gaussian3-hd-default": "42b62e5b94ce816e",
    "convolution-gaussian3-hd-opt": "81e9acdfebb53c5f",
    "convolution-gaussian5-96x128-default": "7dfdf08de0336746",
    "convolution-gaussian5-96x128-opt": "81de14adec23d8cb",
    "convolution-gaussian5-cif-default": "157b9a2d1175ea9e",
    "convolution-gaussian5-cif-opt": "b5a96fabd93817ee",
    "convolution-gaussian5-hd-default": "dcc15a4da7f5fc87",
    "convolution-gaussian5-hd-opt": "6495d77a45556ad1",
    "downscaler-generic@x1-cif-default": "7e51dfb0cfd27e06",
    "downscaler-generic@x1-cif-opt": "d2f6057d6e616ce8",
    "downscaler-generic@x1-hd-default": "fbb1762c5090ceac",
    "downscaler-generic@x1-hd-opt": "7d7d0ee2ece4614a",
    "downscaler-generic@x2-cif-default": "d4f1b67bf86d0861",
    "downscaler-generic@x2-cif-opt": "c84ef713e24dafef",
    "downscaler-generic@x2-hd-default": "154d3ca218787f8e",
    "downscaler-generic@x2-hd-opt": "ea4d156bc043d2be",
    "downscaler-nongeneric@x1-cif-default": "0a6b3ee83b1f300f",
    "downscaler-nongeneric@x1-cif-opt": "904d70d857bd73fb",
    "downscaler-nongeneric@x1-hd-default": "36f4dafec4be4533",
    "downscaler-nongeneric@x1-hd-opt": "90a3a5146a67b820",
    "downscaler-nongeneric@x2-cif-default": "127878b98cd0cacd",
    "downscaler-nongeneric@x2-cif-opt": "1a03cb2e557b2d62",
    "downscaler-nongeneric@x2-hd-default": "ca7d7688609da6a9",
    "downscaler-nongeneric@x2-hd-opt": "04d7e08efbbd1457",
}


def renumbered(text: str) -> str:
    """``text`` with each fresh name's number replaced by its order of
    first appearance."""
    order: dict[str, str] = {}

    def rename(m: re.Match) -> str:
        name = m.group(0)
        if name not in order:
            order[name] = f"{name.rsplit('_', 1)[0]}_{len(order)}"
        return order[name]

    return FRESH.sub(rename, text)


def digest(program) -> str:
    return hashlib.sha256(renumbered(canonical(program)).encode("utf-8")).hexdigest()[:16]


_FRAMES = {"cif": CIF, "hd": HD}
_SHAPES = {"96x128": (96, 128), "cif": (CIF.rows, CIF.cols), "hd": (HD.rows, HD.cols)}
_KERNELS = {"gaussian3": gaussian3, "gaussian5": gaussian5}


@pytest.fixture(scope="module")
def cache():
    return CompileCache()


def _program(name: str, cache: CompileCache):
    app, what, size, setting = name.split("-")
    opt = OptOptions() if setting == "opt" else None
    if app == "downscaler":
        variant, paving = what.split("@x")
        return downscaler_job(
            "sac", size=_FRAMES[size], opt=opt, paving=int(paving),
            variant=GENERIC if variant == "generic" else NONGENERIC,
        ).compile(cache)
    source = convolution_program_source(_KERNELS[what](*_SHAPES[size]))
    return cache.compile_sac(source, "blur", CompileOptions(opt=opt)).program


def test_renumbering_ignores_counters_and_keeps_structure():
    a = "x = _tmp0_38 + _wlf_input_12 + _tmp0_38; y = b_2 + frame;"
    b = "x = _tmp0_8 + _wlf_input_3 + _tmp0_8; y = b_2 + frame;"
    assert renumbered(a) == renumbered(b) == (
        "x = _tmp0_0 + _wlf_input_1 + _tmp0_0; y = b_2 + frame;"
    )
    assert renumbered("_t_1 + _t_2") != renumbered("_t_1 + _t_1")


@pytest.mark.parametrize("name", sorted(PINS))
def test_emitted_program_is_pinned(name, cache):
    assert digest(_program(name, cache)) == PINS[name]
