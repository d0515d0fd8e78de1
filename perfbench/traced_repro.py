"""The ``repro`` command line with the per-layer tracer installed.

``python perfbench/traced_repro.py SPANS_OUT <repro arguments...>``

Installs the wrappers from :mod:`tracer`, then calls
``repro.__main__.main`` with the remaining arguments, so a traced
``repro run`` or ``repro serve`` behaves exactly like the real command.
The spans and the import time are written to ``SPANS_OUT`` when the
command returns (for ``serve``: after SIGTERM shut it down).
"""

from __future__ import annotations

import sys
import time

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from repro.__main__ import main as repro_main

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(argv)
    finally:
        tracer.dump(out, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
