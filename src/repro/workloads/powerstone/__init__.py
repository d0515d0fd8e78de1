"""PowerStone workload kernels (paper Table 3 benchmarks).

PowerStone's ``adpcm`` and ``jpeg`` are the same codecs as the
MediaBench/MiBench versions with smaller inputs; we reuse those kernels
one scale down, renamed into this suite.
"""

from dataclasses import replace

from repro.workloads.cpu import WorkloadRun
from repro.workloads.mibench import adpcm as _adpcm
from repro.workloads.mibench import jpeg as _jpeg
from repro.workloads.powerstone import (
    blit,
    compress,
    des,
    g3fax,
    simple,
    ucbqsort,
    v42,
)

_SMALLER = {"tiny": "tiny", "small": "tiny", "default": "small", "large": "default"}


def _rename(run: WorkloadRun, name: str) -> WorkloadRun:
    # The instruction trace is built later, under ``run.name``.
    run.name = name
    run.data = replace(run.data, name=name)
    return run


def run_adpcm(scale: str = "default", seed: int = 0) -> WorkloadRun:
    return _rename(
        _adpcm.run_decoder(_SMALLER[scale], seed), "powerstone/adpcm"
    )


def run_jpeg(scale: str = "default", seed: int = 0) -> WorkloadRun:
    return _rename(_jpeg.run_decoder(_SMALLER[scale], seed), "powerstone/jpeg")


#: name -> run(scale, seed) for the fourteen Table 3 benchmarks.
KERNELS = {
    "adpcm": run_adpcm,
    "bcnt": simple.run_bcnt,
    "blit": blit.run,
    "compress": compress.run,
    "crc": simple.run_crc,
    "des": des.run,
    "engine": simple.run_engine,
    "fir": simple.run_fir,
    "g3fax": g3fax.run,
    "jpeg": run_jpeg,
    "pocsag": simple.run_pocsag,
    "qurt": simple.run_qurt,
    "ucbqsort": ucbqsort.run,
    "v42": v42.run,
}

__all__ = ["KERNELS", "run_adpcm", "run_jpeg"]
