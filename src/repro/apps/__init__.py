"""Benchmark application graphs (Table 1 systems and worked examples)."""

from functools import partial
from importlib import import_module
from typing import Any, Callable, Dict

from .._lazy import attach
from ..sdf.graph import SDFGraph

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "two_sided_filterbank": ".filterbanks",
    "one_sided_filterbank": ".filterbanks",
    "filterbank_by_name": ".filterbanks",
    "homogeneous_graph": ".homogeneous",
    "depth_first_order": ".homogeneous",
    "shared_lower_bound": ".homogeneous",
    "nonshared_requirement": ".homogeneous",
    "satellite_receiver": ".satellite",
    "SATREC_REPETITIONS": ".satellite",
    "cd_to_dat": ".ptolemy_demos",
    "qam16_modem": ".ptolemy_demos",
    "pam4_transmitter_receiver": ".ptolemy_demos",
    "block_vocoder": ".ptolemy_demos",
    "overlap_add_fft": ".ptolemy_demos",
    "phased_array": ".ptolemy_demos",
}, extra=("TABLE1_SYSTEMS", "table1_graph"))


def _build(module: str, builder: str, *args: Any, **kwargs: Any) -> SDFGraph:
    """Import ``module`` and call its ``builder``: a deferred constructor."""
    return getattr(import_module(module, __name__), builder)(*args, **kwargs)


def _system(module: str, builder: str) -> Callable[[], SDFGraph]:
    return partial(_build, module, builder)


def _filterbank(builder: str, depth: int, ratios: str, name: str):
    return partial(_build, ".filterbanks", builder, depth, ratios, name=name)


#: The Table 1 benchmark suite: name -> constructor.
TABLE1_SYSTEMS: Dict[str, Callable[[], SDFGraph]] = {
    "nqmf23_4d": _filterbank("one_sided_filterbank", 4, "23", "nqmf23_4d"),
    "qmf23_2d": _filterbank("two_sided_filterbank", 2, "23", "qmf23_2d"),
    "qmf12_2d": _filterbank("two_sided_filterbank", 2, "12", "qmf12_2d"),
    "qmf12_3d": _filterbank("two_sided_filterbank", 3, "12", "qmf12_3d"),
    "qmf12_5d": _filterbank("two_sided_filterbank", 5, "12", "qmf12_5d"),
    "qmf23_3d": _filterbank("two_sided_filterbank", 3, "23", "qmf23_3d"),
    "qmf235_2d": _filterbank("two_sided_filterbank", 2, "235", "qmf235_2d"),
    "qmf235_3d": _filterbank("two_sided_filterbank", 3, "235", "qmf235_3d"),
    "qmf235_5d": _filterbank("two_sided_filterbank", 5, "235", "qmf235_5d"),
    "satrec": _system(".satellite", "satellite_receiver"),
    "16qamModem": _system(".ptolemy_demos", "qam16_modem"),
    "4pamxmitrec": _system(".ptolemy_demos", "pam4_transmitter_receiver"),
    "blockVox": _system(".ptolemy_demos", "block_vocoder"),
    "overAddFFT": _system(".ptolemy_demos", "overlap_add_fft"),
    "phasedArray": _system(".ptolemy_demos", "phased_array"),
}


def table1_graph(name: str) -> SDFGraph:
    """Construct a Table 1 system by name."""
    try:
        return TABLE1_SYSTEMS[name]()
    except KeyError:
        raise KeyError(
            f"unknown Table 1 system {name!r}; "
            f"known: {sorted(TABLE1_SYSTEMS)}"
        ) from None
