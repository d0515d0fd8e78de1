"""Address-trace substrate: the Trace type, synthetic generators, I/O.

:func:`load_trace` is the one loader for every trace-file format; the
``iter_*`` readers of :mod:`repro.trace.formats` are the parsers it and
:func:`convert_to_bin` stream through.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.trace.formats": (
            "TraceFileError",
            "iter_dinero",
            "iter_lackey",
            "iter_trace_text",
        ),
        "repro.trace.io": ("load_trace", "save_trace", "save_trace_text"),
        "repro.trace.stats": ("TraceSummary", "summarize"),
        "repro.trace.stream": (
            "BinTraceWriter",
            "save_trace_bin",
            "convert_to_bin",
            "infer_trace_format",
            "TRACE_FORMATS",
        ),
        "repro.trace.synth": (
            "sequential",
            "strided",
            "interleaved",
            "matrix_column_walk",
            "pingpong",
            "random_uniform",
            "repeat",
        ),
        "repro.trace.trace": ("Trace",),
    },
)
